"""Tests for the vectorised cell solvers, including their physics trends."""

import time

import numpy as np
import pytest

from repro.sram.cell import SixTCell, sample_cell_dvt
from repro.sram.solver import (
    bisect_monotone,
    solve_access_current,
    solve_hold_state,
    solve_inverter_trip,
    solve_read_node,
    solve_read_trip,
    solve_write_node,
    solve_write_time,
    solve_write_trip,
)
from repro.technology.corners import ProcessCorner


def scalar(value):
    """Collapse a size-1 solver output to a Python float."""
    return float(np.asarray(value).reshape(-1)[0])


class TestBisection:
    def test_linear_root(self):
        root = bisect_monotone(lambda v: 0.5 - v, 0.0, 1.0, (1,))
        assert root[0] == pytest.approx(0.5, abs=1e-8)

    def test_vectorised_roots(self):
        targets = np.array([0.1, 0.4, 0.9])
        roots = bisect_monotone(lambda v: targets - v, 0.0, 1.0, (3,))
        np.testing.assert_allclose(roots, targets, atol=1e-8)

    def test_clamps_to_bracket_when_no_sign_change(self):
        high = bisect_monotone(lambda v: np.full_like(v, 1.0), 0.0, 1.0, (1,))
        low = bisect_monotone(lambda v: np.full_like(v, -1.0), 0.0, 1.0, (1,))
        assert high[0] == pytest.approx(1.0, abs=1e-6)
        assert low[0] == pytest.approx(0.0, abs=1e-6)


@pytest.fixture(scope="module")
def nominal_cell():
    from repro.sram.cell import CellGeometry
    from repro.technology import predictive_70nm

    return SixTCell(predictive_70nm(), CellGeometry(), ProcessCorner(0.0))


class TestReadSolves:
    def test_v_read_between_rails(self, nominal_cell):
        v = solve_read_node(nominal_cell, 1.0)
        assert 0.0 < scalar(v) < 0.5  # a healthy cell keeps the disturb low

    def test_v_read_below_trip(self, nominal_cell):
        v_read = scalar(solve_read_node(nominal_cell, 1.0))
        v_trip = scalar(solve_read_trip(nominal_cell, 1.0))
        assert v_read < v_trip

    def test_stronger_pull_down_lowers_v_read(self, tech):
        from repro.sram.cell import CellGeometry

        weak = SixTCell(tech, CellGeometry(w_pull_down=150e-9))
        strong = SixTCell(tech, CellGeometry(w_pull_down=300e-9))
        assert scalar(solve_read_node(strong, 1.0)) < scalar(
            solve_read_node(weak, 1.0)
        )

    def test_rbb_reduces_v_read(self, nominal_cell):
        zbb = scalar(solve_read_node(nominal_cell, 1.0, vbody_n=0.0))
        rbb = scalar(solve_read_node(nominal_cell, 1.0, vbody_n=-0.4))
        assert rbb < zbb

    def test_rbb_raises_read_trip(self, nominal_cell):
        zbb = scalar(solve_read_trip(nominal_cell, 1.0, vbody_n=0.0))
        rbb = scalar(solve_read_trip(nominal_cell, 1.0, vbody_n=-0.4))
        assert rbb > zbb


class TestWriteSolves:
    def test_write_node_below_trip(self, nominal_cell):
        v_write = scalar(solve_write_node(nominal_cell, 1.0))
        v_trip = scalar(solve_write_trip(nominal_cell, 1.0))
        assert v_write < v_trip

    def test_write_time_positive_and_finite(self, nominal_cell):
        t = scalar(solve_write_time(nominal_cell, 1.0))
        assert 0.0 < t < 1e-9

    def test_rbb_slows_the_write(self, nominal_cell):
        t_zbb = scalar(solve_write_time(nominal_cell, 1.0, vbody_n=0.0))
        t_rbb = scalar(solve_write_time(nominal_cell, 1.0, vbody_n=-0.4))
        assert t_rbb > t_zbb

    def test_high_vt_corner_slows_the_write(self, nominal_cell):
        slow = nominal_cell.at_corner(ProcessCorner(0.1))
        assert scalar(solve_write_time(slow, 1.0)) > scalar(
            solve_write_time(nominal_cell, 1.0)
        )

    def test_static_write_failure_is_infinite(self, tech):
        """A huge pull-up against a sliver of an access device: no write."""
        from repro.sram.cell import CellGeometry

        unwritable = SixTCell(
            tech, CellGeometry(w_pull_up=2000e-9, w_access=40e-9)
        )
        assert np.isinf(scalar(solve_write_time(unwritable, 1.0)))

    def test_odd_point_count_required(self, nominal_cell):
        with pytest.raises(ValueError):
            solve_write_time(nominal_cell, 1.0, n_points=8)


class TestAccessSolve:
    def test_access_current_magnitude(self, nominal_cell):
        i = scalar(solve_access_current(nominal_cell, 1.0))
        assert 1e-5 < i < 1e-3

    def test_rbb_reduces_access_current(self, nominal_cell):
        assert scalar(solve_access_current(nominal_cell, 1.0, -0.4)) < scalar(
            solve_access_current(nominal_cell, 1.0, 0.0)
        )

    def test_high_vt_corner_reduces_access_current(self, nominal_cell):
        slow = nominal_cell.at_corner(ProcessCorner(0.1))
        assert scalar(solve_access_current(slow, 1.0)) < scalar(
            solve_access_current(nominal_cell, 1.0)
        )


class TestHoldSolve:
    def test_healthy_cell_retains_full_rail(self, nominal_cell):
        vl, vr = solve_hold_state(nominal_cell, vdd_standby=0.8)
        assert scalar(vl) > 0.75
        assert scalar(vr) < 0.05

    def test_source_bias_raises_zero_node(self, nominal_cell):
        _, vr = solve_hold_state(nominal_cell, vdd_standby=0.8, vsb=0.3)
        assert scalar(vr) == pytest.approx(0.3, abs=0.05)

    def test_differential_shrinks_with_source_bias(self, nominal_cell):
        margins = []
        for vsb in (0.0, 0.3, 0.5):
            vl, vr = solve_hold_state(nominal_cell, 0.8, vsb=vsb)
            margins.append(scalar(vl - vr))
        assert margins[0] > margins[1] > margins[2]

    def test_leaky_cell_droops(self, tech, geometry):
        """A strongly low-Vt NL leaks the '1' node down at low standby."""
        dvt = {name: np.array([0.0]) for name in
               ("pl", "pr", "nl", "nr", "axl", "axr")}
        dvt["nl"] = np.array([-0.15])
        dvt["pl"] = np.array([+0.15])  # weak pull-up, leaky pull-down
        frail = SixTCell(tech, geometry, ProcessCorner(0.0), dvt)
        healthy = SixTCell(tech, geometry, ProcessCorner(0.0))
        vl_frail, _ = solve_hold_state(frail, vdd_standby=0.3)
        vl_ok, _ = solve_hold_state(healthy, vdd_standby=0.3)
        assert scalar(vl_frail) < scalar(vl_ok) - 0.02

    def test_vectorised_population(self, tech, geometry, rng):
        dvt = sample_cell_dvt(tech, geometry, rng, 500)
        cell = SixTCell(tech, geometry, ProcessCorner(0.0), dvt)
        vl, vr = solve_hold_state(cell, vdd_standby=0.3)
        assert vl.shape == (500,)
        assert np.all(vl > vr)  # at nominal 0.3 V nearly all cells retain

    def test_inverter_trip_between_rails(self, nominal_cell):
        vm = solve_inverter_trip(
            nominal_cell.device("pl"), nominal_cell.device("nl"), 1.0
        )
        assert 0.1 < scalar(vm) < 0.9


#: Population size of the kernel checks (one sweep point's work).
N_CELLS = 20_000

#: Minimum metric-engine throughput [cells/s].  Typical hardware
#: delivers 7-30k cells/s; the floor sits ~3x below the slowest machine
#: measured so only an algorithmic regression, not scheduler jitter or
#: a loaded box, can trip it.
THROUGHPUT_FLOOR = 2_000


@pytest.fixture(scope="module")
def population():
    from repro.sram.cell import CellGeometry
    from repro.technology import predictive_70nm

    tech = predictive_70nm()
    geometry = CellGeometry()
    dvt = sample_cell_dvt(tech, geometry, np.random.default_rng(1), N_CELLS)
    return SixTCell(tech, geometry, ProcessCorner(0.0), dvt)


class TestPopulationKernels:
    def test_read_and_hold_solves(self, population):
        v_read = solve_read_node(population, 1.0)
        assert v_read.shape == (N_CELLS,)
        assert float(np.mean(v_read)) < 0.5
        vl, vr = solve_hold_state(population, 0.3)
        assert vl.shape == vr.shape == (N_CELLS,)
        assert np.all(vl >= vr)

    def test_leakage_shape(self, population):
        from repro.sram.leakage import cell_leakage

        assert cell_leakage(population).total.shape == (N_CELLS,)

    def test_metric_engine_throughput_floor(self, population):
        from repro.sram.metrics import OperatingConditions, compute_cell_metrics

        conditions = OperatingConditions.nominal(population.tech)
        start = time.perf_counter()
        metrics = compute_cell_metrics(population, conditions)
        rate = N_CELLS / (time.perf_counter() - start)
        assert metrics.v_read.shape == (N_CELLS,)
        assert rate > THROUGHPUT_FLOOR, (
            f"metric engine measured {rate:.0f} cells/s, below the "
            f"{THROUGHPUT_FLOOR} cells/s floor"
        )

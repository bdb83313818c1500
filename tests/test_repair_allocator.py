"""Tests for the redundancy repair allocators."""

import numpy as np
import pytest

from repro.failures import memory_failure_probability
from repro.sram.array import ArrayOrganization
from repro.sram.repair import (
    RepairPlan,
    allocate_columns,
    allocate_exhaustive,
    allocate_rows_and_columns,
    repair_yield_monte_carlo,
)


def _map(rows, cols, faults):
    out = np.zeros((rows, cols), dtype=bool)
    for r, c in faults:
        out[r, c] = True
    return out


class TestColumnAllocation:
    def test_empty_map_succeeds(self):
        plan = allocate_columns(np.zeros((4, 4), dtype=bool), 1)
        assert plan.success
        assert plan.columns == ()

    def test_allocates_each_faulty_column(self):
        fail = _map(4, 6, [(0, 1), (2, 1), (3, 4)])
        plan = allocate_columns(fail, spare_columns=2)
        assert plan.success
        assert set(plan.columns) == {1, 4}
        assert plan.covers(fail)

    def test_fails_when_spares_exhausted(self):
        fail = _map(4, 6, [(0, 1), (1, 2), (2, 3)])
        plan = allocate_columns(fail, spare_columns=2)
        assert not plan.success

    def test_negative_spares_rejected(self):
        with pytest.raises(ValueError):
            allocate_columns(np.zeros((2, 2), dtype=bool), -1)


class TestRowColumnAllocation:
    def test_row_fault_cluster_uses_a_row(self):
        # One row carrying 4 faults: must use the row spare.
        fail = _map(4, 6, [(1, 0), (1, 2), (1, 3), (1, 5)])
        plan = allocate_rows_and_columns(fail, spare_rows=1, spare_columns=2)
        assert plan.success
        assert plan.rows == (1,)
        assert plan.covers(fail)

    def test_mixed_cluster(self):
        fail = _map(5, 5, [(0, 0), (1, 0), (2, 0), (4, 1), (4, 3)])
        plan = allocate_rows_and_columns(fail, spare_rows=1, spare_columns=1)
        assert plan.success
        assert plan.covers(fail)

    def test_unrepairable_reported(self):
        fail = np.ones((4, 4), dtype=bool)
        plan = allocate_rows_and_columns(fail, spare_rows=1, spare_columns=1)
        assert not plan.success

    @pytest.mark.parametrize("seed", range(8))
    def test_greedy_matches_exhaustive_when_exhaustive_succeeds(self, seed):
        """Whenever the exact search finds a repair, greedy must too
        (must-repair + greedy is optimal for these small densities)."""
        rng = np.random.default_rng(seed)
        fail = rng.random((8, 8)) < 0.08
        exact = allocate_exhaustive(fail, spare_rows=2, spare_columns=2)
        greedy = allocate_rows_and_columns(fail, spare_rows=2,
                                           spare_columns=2)
        if exact.success:
            assert greedy.success
            assert greedy.covers(fail)
        else:
            # Greedy is a heuristic: it must never claim success when the
            # exhaustive oracle says unrepairable.
            assert not greedy.success

    def test_validation(self):
        with pytest.raises(ValueError):
            allocate_rows_and_columns(np.zeros((2, 2), dtype=bool), -1, 0)


class TestRepairYield:
    def test_column_only_matches_analytic(self, rng):
        """With no row spares the MC yield equals the binomial model."""
        rows, cols, spares = 16, 32, 3
        p_cell = 4e-3
        org = ArrayOrganization(rows=rows, columns=cols,
                                redundant_columns=spares)
        analytic = 1.0 - memory_failure_probability(p_cell, org)
        mc = repair_yield_monte_carlo(
            p_cell, rows, cols, spare_rows=0, spare_columns=spares,
            rng=rng, trials=4000,
        )
        assert mc == pytest.approx(analytic, abs=0.03)

    def test_row_spares_add_yield(self, rng):
        p_cell = 6e-3
        base = repair_yield_monte_carlo(
            p_cell, 16, 32, spare_rows=0, spare_columns=2,
            rng=np.random.default_rng(1), trials=3000,
        )
        extra = repair_yield_monte_carlo(
            p_cell, 16, 32, spare_rows=2, spare_columns=2,
            rng=np.random.default_rng(2), trials=3000,
        )
        assert extra > base + 0.02

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            repair_yield_monte_carlo(1e-3, 4, 4, 0, 1, rng, trials=0)


def test_repair_plan_covers():
    fail = _map(3, 3, [(0, 0), (2, 2)])
    assert RepairPlan(True, rows=(0,), columns=(2,)).covers(fail)
    assert not RepairPlan(True, rows=(0,), columns=()).covers(fail)

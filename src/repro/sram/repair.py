"""Redundancy repair allocation.

The yield math in :mod:`repro.stats.yield_model` only *counts* faulty
columns; a real memory must also decide which spare replaces what.
This module implements the allocators:

* :func:`allocate_columns` — the paper's column-only scheme: any column
  containing a faulty cell is swapped for a spare, first-come
  first-served (order is irrelevant for pure column repair);
* :func:`allocate_rows_and_columns` — the classic greedy must-repair
  algorithm for combined row+column redundancy: lines whose fault count
  exceeds the *other* dimension's remaining spares must be repaired by
  their own dimension; leftover sporadic faults are covered
  greedily.  Exact optimal allocation is NP-complete (Kuo & Fuchs), so
  the greedy allocator is validated against exhaustive search on small
  instances in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np


@dataclass(frozen=True)
class RepairPlan:
    """The outcome of a repair allocation.

    Attributes:
        success: every faulty cell is covered by a replaced line.
        rows: indices of replaced rows.
        columns: indices of replaced columns.
    """

    success: bool
    rows: tuple[int, ...] = field(default=())
    columns: tuple[int, ...] = field(default=())

    def covers(self, fail_map: np.ndarray) -> bool:
        """True when every fault lies on a replaced row or column."""
        remaining = fail_map.copy()
        if self.rows:
            remaining[list(self.rows), :] = False
        if self.columns:
            remaining[:, list(self.columns)] = False
        return not remaining.any()


def allocate_columns(fail_map: np.ndarray, spare_columns: int) -> RepairPlan:
    """Column-only repair (the paper's redundancy model)."""
    if spare_columns < 0:
        raise ValueError("spare_columns must be non-negative")
    faulty = np.nonzero(fail_map.any(axis=0))[0]
    if faulty.size > spare_columns:
        return RepairPlan(success=False, columns=tuple(faulty[:spare_columns]))
    return RepairPlan(success=True, columns=tuple(int(c) for c in faulty))


def allocate_rows_and_columns(
    fail_map: np.ndarray, spare_rows: int, spare_columns: int
) -> RepairPlan:
    """Greedy must-repair allocation for row+column redundancy.

    1. *Must-repair*: a row with more faults than the remaining column
       spares can only be fixed by a row spare (and symmetrically) —
       iterate until stable.
    2. *Sporadic*: remaining faults are isolated; cover them greedily by
       whichever dimension removes the most faults per spare.
    """
    if spare_rows < 0 or spare_columns < 0:
        raise ValueError("spare counts must be non-negative")
    remaining = np.array(fail_map, dtype=bool, copy=True)
    used_rows: list[int] = []
    used_columns: list[int] = []

    changed = True
    while changed:
        changed = False
        col_budget = spare_columns - len(used_columns)
        for r in np.nonzero(remaining.sum(axis=1) > col_budget)[0]:
            if len(used_rows) >= spare_rows:
                return RepairPlan(False, tuple(used_rows), tuple(used_columns))
            used_rows.append(int(r))
            remaining[r, :] = False
            changed = True
        row_budget = spare_rows - len(used_rows)
        for c in np.nonzero(remaining.sum(axis=0) > row_budget)[0]:
            if len(used_columns) >= spare_columns:
                return RepairPlan(False, tuple(used_rows), tuple(used_columns))
            used_columns.append(int(c))
            remaining[:, c] = False
            changed = True

    while remaining.any():
        row_counts = remaining.sum(axis=1)
        col_counts = remaining.sum(axis=0)
        best_row = int(np.argmax(row_counts))
        best_col = int(np.argmax(col_counts))
        can_row = len(used_rows) < spare_rows
        can_col = len(used_columns) < spare_columns
        if not can_row and not can_col:
            return RepairPlan(False, tuple(used_rows), tuple(used_columns))
        take_row = can_row and (
            not can_col or row_counts[best_row] >= col_counts[best_col]
        )
        if take_row:
            used_rows.append(best_row)
            remaining[best_row, :] = False
        else:
            used_columns.append(best_col)
            remaining[:, best_col] = False

    return RepairPlan(True, tuple(used_rows), tuple(used_columns))


def allocate_exhaustive(
    fail_map: np.ndarray, spare_rows: int, spare_columns: int
) -> RepairPlan:
    """Exact allocation by exhaustive search (small instances only).

    Used as the test oracle for the greedy allocator.  Complexity is
    combinatorial in the faulty lines; callers should keep the fail map
    below ~16x16.
    """
    faulty_rows = np.nonzero(fail_map.any(axis=1))[0]
    faulty_cols = np.nonzero(fail_map.any(axis=0))[0]
    for n_rows in range(min(spare_rows, faulty_rows.size) + 1):
        for rows in combinations(faulty_rows, n_rows):
            remaining = fail_map.copy()
            if rows:
                remaining[list(rows), :] = False
            needed = np.nonzero(remaining.any(axis=0))[0]
            if needed.size <= spare_columns:
                return RepairPlan(
                    True, tuple(int(r) for r in rows),
                    tuple(int(c) for c in needed),
                )
    return RepairPlan(False)


def repair_yield_monte_carlo(
    p_cell: float,
    rows: int,
    columns: int,
    spare_rows: int,
    spare_columns: int,
    rng: np.random.Generator,
    trials: int = 2000,
) -> float:
    """Monte-Carlo repairable fraction under row+column redundancy.

    There is no closed form for combined redundancy (allocation is
    NP-complete), so the yield is estimated by sampling fault maps and
    running the greedy allocator.  With ``spare_rows = 0`` this
    converges to the analytic column-only yield (asserted in the test
    suite).
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    successes = 0
    for _ in range(trials):
        fail_map = rng.random((rows, columns)) < p_cell
        if not fail_map.any():
            successes += 1
            continue
        plan = allocate_rows_and_columns(fail_map, spare_rows, spare_columns)
        successes += plan.success
    return successes / trials

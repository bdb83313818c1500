"""Fig. 4b — failing cells in a 256KB array, no bias vs self-repairing.

Paper: the self-repairing scheme collapses the number of failures for
dies shifted to either inter-die extreme (the monitor bins them and the
body bias pulls them back toward nominal behaviour).
"""

import numpy as np

from repro.experiments import repair


def test_fig4b(ctx, save_result):
    shifts = np.linspace(-0.1, 0.1, 9)
    result = repair.fig4b(ctx, shifts=shifts, memory_kbytes=256)
    save_result("fig4b", result.rows())

    # Huge reduction at the extremes (paper's bars collapse).
    assert result.failures_repaired[0] < 0.05 * result.failures_zbb[0]
    assert result.failures_repaired[-1] < 0.1 * result.failures_zbb[-1]
    # Nominal dies are untouched (ZBB bin).
    mid = len(shifts) // 2
    assert result.failures_repaired[mid] == result.failures_zbb[mid]
    # Unrepaired failures blow up toward the corners.
    assert result.failures_zbb[0] > 100 * result.failures_zbb[mid]
    assert result.failures_zbb[-1] > 100 * result.failures_zbb[mid]

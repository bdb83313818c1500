"""Fig. 2a — cell and memory failure probability vs inter-die Vt shift.

Paper: read/hold failures dominate low-Vt dies, access/write failures
dominate high-Vt dies; the overall cell failure is minimal near the
nominal corner; memory failure (after redundancy) is negligible in a
central region B and ~1 in the outer regions A and C.
"""

import numpy as np

from repro.experiments import repair


def test_fig2a(ctx, save_result):
    result = repair.fig2a(ctx, shifts=np.linspace(-0.12, 0.12, 13))
    save_result("fig2a", result.rows())

    p = result.probabilities
    mid = len(result.shifts) // 2

    # Bathtub: both extremes far above the nominal point.
    assert p["any"][0] > 100 * p["any"][mid]
    assert p["any"][-1] > 100 * p["any"][mid]
    # Mechanism asymmetry (the paper's region A vs C).
    assert p["read"][0] > 1e3 * p["read"][-1]
    assert p["access"][-1] > 1e3 * p["access"][0]
    # Hold rises on both sides (leakage left, trip point right).
    assert p["hold"][0] > 3 * p["hold"][mid]
    assert p["hold"][-1] > 1.5 * p["hold"][mid]
    # Memory-level region structure: negligible at nominal, ~1 outside.
    assert result.p_memory[mid] < 1e-6
    assert result.p_memory[0] > 0.99
    assert result.p_memory[-1] > 0.99

"""Fig. 5c — leakage yield vs sigma(Vt_inter), ZBB vs self-repair (64KB).

Paper: the fraction of dies meeting a total-leakage bound degrades with
inter-die sigma; the self-repairing scheme recovers most of it.
"""

import numpy as np

from repro.experiments import repair


def test_fig5c(ctx, save_result):
    sigmas = np.linspace(0.02, 0.08, 7)
    result = repair.fig5c(ctx, sigmas=sigmas, memory_kbytes=64)
    save_result("fig5c", result.rows())

    # ZBB leakage yield falls with sigma.
    assert result.yield_zbb[-1] < result.yield_zbb[0] - 0.1
    # Self-repair dominates and recovers a paper-scale gap.
    assert np.all(result.yield_repaired >= result.yield_zbb - 0.02)
    gain = result.yield_repaired - result.yield_zbb
    assert gain.max() > 0.08

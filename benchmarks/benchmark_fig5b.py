"""Fig. 5b — memory leakage spread, ZBB vs self-repairing (64KB).

Paper: applying RBB to leaky dies and FBB to slow dies compresses the
die-to-die leakage distribution toward the nominal corner.
"""

from repro.experiments import repair


def test_fig5b(ctx, save_result):
    result = repair.fig5b(ctx, sigma_inter=0.05, n_dies=400)
    save_result("fig5b", result.rows())

    # The spread compression is substantial.
    assert result.spread_reduction > 0.3
    # And the worst-case (p95) leakage comes down.
    import numpy as np

    p95_zbb = np.quantile(result.leakage_zbb, 0.95)
    p95_rep = np.quantile(result.leakage_repaired, 0.95)
    assert p95_rep < 0.8 * p95_zbb

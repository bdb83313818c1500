"""Fig. 2c — parametric yield vs sigma(Vt_inter), ZBB vs self-repairing.

Paper: for 64KB and 256KB arrays the self-repairing scheme improves
parametric yield by 8-25% over the no-body-bias design across the
realistic sigma range.
"""

import numpy as np

from repro.experiments import repair


def test_fig2c(ctx, save_result):
    sigmas = np.linspace(0.02, 0.08, 7)
    result = repair.fig2c(ctx, sigmas=sigmas, sizes_kbytes=(64, 256))
    save_result("fig2c", result.rows())

    for kbytes in (64, 256):
        zbb = result.yields[(kbytes, "zbb")]
        rep = result.yields[(kbytes, "self_repair")]
        # Yield falls with sigma without repair.
        assert zbb[-1] < zbb[0]
        # Self-repair never loses more than integration noise...
        assert np.all(rep >= zbb - 0.02)
        # ...and recovers a paper-scale chunk somewhere in the sweep
        # (the paper quotes 8-25%).
        improvement = result.improvement(kbytes)
        assert improvement.max() > 8.0
    # The larger memory is (weakly) harder to yield.
    assert np.all(
        result.yields[(256, "zbb")] <= result.yields[(64, "zbb")] + 0.02
    )

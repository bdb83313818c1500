"""Fig. 9 — distributions of VSB(adaptive) and of standby power.

Paper: (a, inset) the variation of the adaptive source bias across dies
at the *same* inter-die corner is negligible (the array-level order
statistics concentrate); (b) with VSB(adaptive) the standby-power
distribution sits close to the fixed VSB(opt) one and far below the
zero-bias distribution.
"""

import numpy as np
import pytest

from repro.experiments import asb


def test_fig9(ctx, save_result):
    result = asb.fig9(ctx, n_bist_dies=12, n_power_dies=400)
    save_result("fig9", result.rows())

    # (a) per-corner adaptive spread: a couple of DAC steps at most.
    assert result.vsb_samples.std() < 0.015
    assert np.ptp(result.vsb_samples) < 0.04
    # (b) power orderings: zero >> opt ~ adaptive.
    mean_zero = result.power_zero.mean()
    mean_opt = result.power_opt.mean()
    mean_adaptive = result.power_adaptive.mean()
    assert mean_adaptive < 0.35 * mean_zero
    assert mean_adaptive == pytest.approx(mean_opt, rel=0.25)

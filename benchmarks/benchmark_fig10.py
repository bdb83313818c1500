"""Fig. 10 — leakage yield and hold yield vs sigma, three policies.

Paper headline numbers:
* leakage yield: the adaptive scheme gains 7-25% over zero source bias
  and is essentially indistinguishable from VSB(opt);
* hold yield: the adaptive scheme cuts the number of hold-failing chips
  by 70-85% relative to VSB(opt), losing only 1-5% against the
  zero-bias ideal.
"""

import numpy as np

from repro.experiments import asb


def test_fig10(ctx, save_result):
    sigmas = np.linspace(0.02, 0.08, 7)
    result = asb.fig10(ctx, sigmas=sigmas)
    save_result("fig10", result.rows())

    ly, hy = result.leakage_yield, result.hold_yield

    # Leakage yield: adaptive ~ opt >> zero.
    assert np.all(ly["adaptive"] >= ly["zero"])
    gain_vs_zero = ly["adaptive"] - ly["zero"]
    assert gain_vs_zero.max() > 0.07  # the paper's >= 7%
    assert np.all(np.abs(ly["adaptive"] - ly["opt"]) < 0.05)

    # Hold yield: zero is the ideal; adaptive recovers most of what the
    # fixed optimum loses.
    assert np.all(hy["zero"] >= hy["adaptive"] - 1e-9)
    assert np.all(hy["adaptive"] >= hy["opt"] - 1e-9)
    # At the wide-sigma end: the failing-chip reduction is paper-scale.
    fail_opt = 1.0 - hy["opt"][-1]
    fail_adaptive = 1.0 - hy["adaptive"][-1]
    assert fail_adaptive < 0.5 * fail_opt  # >= 50% fewer failing chips
    # Hold-yield loss vs the zero-bias ideal stays single-digit.
    assert hy["zero"][-1] - hy["adaptive"][-1] < 0.12

"""Fig. 6 — maximum source bias for a target hold-failure probability.

Paper: the source bias a die can tolerate at P_HF = 1e-3 is largest for
nominal dies and shrinks toward both inter-die extremes (leakage droop
on the low-Vt side, the weakening pull-up / rising trip point on the
high-Vt side).
"""

import numpy as np

from repro.experiments import asb


def test_fig6(ctx, save_result):
    shifts = np.linspace(-0.1, 0.1, 11)
    result = asb.fig6(ctx, shifts=shifts, p_target=1e-3)
    save_result("fig6", result.rows())

    vsb = result.vsb_max
    # All corners tolerate a substantial bias, none reach the DAC rail.
    assert np.all(vsb > 0.3)
    assert np.all(vsb < 0.635)
    # The maximum sits in the interior (near-nominal corners)...
    best = int(np.argmax(vsb))
    assert 0 < best < len(shifts) - 1
    # ...and the high-Vt extreme tolerates the least.
    assert vsb[-1] < vsb[best]
    assert vsb[0] <= vsb[best]

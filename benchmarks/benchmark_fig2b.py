"""Fig. 2b — effect of NMOS body bias on each failure mechanism.

Paper: RBB reduces read and hold failures but increases access and
write failures; FBB does the opposite; with the equal-probability cell
sizing the overall failure is minimal near ZBB for a nominal die.
"""

import numpy as np

from repro.experiments import repair


def test_fig2b(ctx, save_result):
    vbody = np.linspace(-0.5, 0.5, 11)
    result = repair.fig2b(ctx, vbody=vbody)
    save_result("fig2b", result.rows())

    p = result.probabilities
    mid = len(vbody) // 2
    # RBB (index 0) vs ZBB vs FBB (index -1) orderings per mechanism.
    assert p["read"][0] < p["read"][mid] < p["read"][-1]
    assert p["hold"][0] < p["hold"][mid] < p["hold"][-1]
    assert p["access"][0] > p["access"][mid] > p["access"][-1]
    assert p["write"][0] > p["write"][mid] > p["write"][-1]
    # Equal-probability sizing: the overall minimum sits near ZBB.
    best = int(np.argmin(p["any"]))
    assert abs(vbody[best]) <= 0.2

"""Fig. 5a — normalised cell leakage components vs body bias.

Paper: subthreshold leakage falls with RBB and rises with FBB; junction
band-to-band tunnelling rises with RBB; gate leakage is insensitive;
the total has an interior minimum, and strong forward bias is bounded
by the body diode (the "Max FBB" marker).
"""

import numpy as np

from repro.experiments import repair


def test_fig5a(ctx, save_result):
    result = repair.fig5a(ctx)
    save_result("fig5a", result.rows())

    sub, gate, junction = result.subthreshold, result.gate, result.junction
    vbody = result.vbody
    # Subthreshold monotone increasing in body bias.
    assert np.all(np.diff(sub) > 0)
    # Junction has its *minimum* in the interior and grows toward strong
    # RBB (BTBT) and strong FBB (body diode).
    j_min = int(np.argmin(junction))
    assert 0 < j_min < len(junction) - 1
    assert junction[0] > 3 * junction[j_min]
    assert junction[-1] > 3 * junction[j_min]
    # Gate leakage flat to within a percent of the ZBB total.
    assert np.ptp(gate) < 0.01
    # Total: interior minimum at a moderate reverse bias.
    best = vbody[int(np.argmin(result.total))]
    assert -0.55 < best < -0.05
    # FBB end exceeds the ZBB total by a large factor (the Max FBB bound).
    zbb_index = int(np.argmin(np.abs(vbody)))
    assert result.total[-1] > 3 * result.total[zbb_index]

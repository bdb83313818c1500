"""Extension benches: the companion-work features beyond the figures.

* ext_delay / ext_temperature — the leakage-vs-delay sensor fusion of
  the companion ITC'05 self-repair work (the paper's reference [4]);
* ext_drv — the data-retention-voltage flow of reference [9];
* ext_performance — the access-time side of the body-bias trade-off.
"""

import numpy as np

from repro.experiments import extensions


def test_ext_delay(ctx, save_result):
    result = extensions.ext_delay(ctx)
    save_result("ext_delay", result.rows())
    assert result.decisions["leakage"] == result.decisions["delay"]
    assert result.hot_decisions["leakage"] == "low_vt"
    assert result.hot_decisions["combined"] != "low_vt"


def test_ext_drv(ctx, save_result):
    result = extensions.ext_drv(ctx)
    save_result("ext_drv", result.rows())
    drv = result.cell_drv[0.0]
    # The retention floor sits far below the nominal supply...
    assert np.median(drv) < 0.5
    # ...but the array-extreme (worst cell per 64Kb die) dominates it.
    assert result.array_quantiles[0.0] > np.median(drv) + 0.05
    assert result.safe_voltage < 1.0


def test_ext_performance(ctx, save_result):
    result = extensions.ext_performance(ctx)
    save_result("ext_performance", result.rows())
    # FBB recovers a measurable slice of the slow-corner access time.
    recovery = 1.0 - result.t_access_repaired[-1] / result.t_access_zbb[-1]
    assert recovery > 0.03
    # RBB costs speed at the fast corner (the price of read stability).
    assert result.t_access_repaired[0] > result.t_access_zbb[0]


def test_ext_temperature(ctx, save_result):
    result = extensions.ext_temperature(ctx)
    save_result("ext_temperature", result.rows())
    # Roughly an order of magnitude of leakage from 0C to 85C.
    assert result.mean_cell_leakage[-1] > 8 * result.mean_cell_leakage[0]
    # The leakage-only monitor is fooled at 85C.
    assert result.leakage_bin[-1] == "low_vt"


def test_ext_ecc(ctx, save_result):
    result = extensions.ext_ecc(ctx)
    save_result("ext_ecc", result.rows())
    mid = len(result.shifts) // 2
    # At equal overhead: redundancy beats ECC for hard parametric faults.
    assert result.p_redundancy[mid] <= result.p_ecc[mid] + 1e-12
    assert result.p_ecc[mid] <= result.p_none[mid] + 1e-12
    # Post-silicon repair widens the usable corner window beyond both.
    assert result.p_repair_plus_redundancy[0] < result.p_redundancy[0]


def test_ext_snm(ctx, save_result):
    result = extensions.ext_snm(ctx)
    save_result("ext_snm", result.rows())
    # RBB widens, FBB narrows the read butterfly (Fig. 2b in margins).
    assert np.all(np.diff(result.read_mean) < 0)
    assert np.all(result.hold_mean > result.read_mean)


def test_ext_8t(ctx, save_result):
    result = extensions.ext_8t(ctx)
    save_result("ext_8t", result.rows())
    mid = len(result.shifts) // 2
    # The 8T removes the 6T's low-Vt read wall...
    assert result.p8_any[0] < 0.1 * result.p6_any[0]
    # ...and still has a (much gentler) high-Vt wall of its own: its
    # write/hold mechanisms grow with the corner even though the
    # free-sized two-transistor read port postpones the access wall far
    # beyond the 6T's.
    assert result.p8_any[-1] > 5 * result.p8_any[mid]
    assert result.p8_any[-1] < result.p6_any[-1]

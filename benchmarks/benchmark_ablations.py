"""Ablation benches for the design choices DESIGN.md calls out.

Not figures from the paper — studies of the knobs the paper fixes:

* number of body-bias levels (the paper's 3-bin scheme vs 5 bins);
* March algorithm choice for the ASB calibration (MATS+ / X / C-);
* comparator offset sensitivity of the monitor binning;
* importance-sampling accuracy vs plain Monte Carlo.
"""

import numpy as np

from repro.core.march import MARCH_CM, MARCH_X, MATS_PLUS
from repro.core.monitor import LeakageMonitor
from repro.core.source_bias import BISTController, SelfAdaptiveSourceBias
from repro.experiments.asb import default_asb_organization
from repro.failures import parametric_yield
from repro.sram.array import FunctionalMemoryArray
from repro.sram.cell import SixTCell, sample_cell_dvt
from repro.sram.leakage import cell_leakage
from repro.stats.montecarlo import probability_of
from repro.stats.sampling import importance_sample_dvt
from repro.technology.corners import ProcessCorner
from repro.technology.variation import InterDieDistribution


def test_ablation_bias_levels(ctx, save_result):
    """3-bin (paper) vs 5-bin adaptive body bias.

    A finer generator adds +/-0.2 V intermediate levels and picks, per
    corner, the level minimising the cell failure probability (an
    oracle upper bound for any monitor-driven policy at that level set).
    """
    from repro.experiments.repair import _organization, _pipeline

    organization = _organization(64)
    pipeline = _pipeline(ctx, organization)
    levels_3 = (-0.4, 0.0, 0.4)
    levels_5 = (-0.4, -0.2, 0.0, 0.2, 0.4)

    def yield_with_levels(levels, sigma):
        def p_cell(corner):
            quantised = ProcessCorner(round(corner.dvt_inter, 3))
            return min(
                pipeline.cell_failure_probability(quantised, vb)
                for vb in levels
            )

        return parametric_yield(
            p_cell, organization, InterDieDistribution(sigma)
        )

    def run():
        rows = ["sigma[mV]  3-bin oracle[%]  5-bin oracle[%]  monitor[%]"]
        data = []
        for sigma in (0.03, 0.05, 0.07):
            y3 = yield_with_levels(levels_3, sigma)
            y5 = yield_with_levels(levels_5, sigma)
            ym = pipeline.parametric_yield(
                InterDieDistribution(sigma), repaired=True
            )
            rows.append(
                f"{sigma * 1e3:8.0f}  {100 * y3:14.1f}  {100 * y5:14.1f}"
                f"  {100 * ym:9.1f}"
            )
            data.append((y3, y5, ym))
        return rows, data

    rows, data = run()
    save_result("ablation_bias_levels", rows)
    for y3, y5, ym in data:
        assert y5 >= y3 - 0.01      # more levels never hurt the oracle
        assert ym <= y3 + 0.02      # the 3-bin monitor ~ the 3-bin oracle


def test_ablation_march_choice(ctx, save_result):
    """MATS+ vs March X vs March C- for the ASB calibration.

    All three catch the retention faults (the dwell dominates), so the
    selected VSB should agree within a DAC step — the paper's choice of
    test algorithm is not load-bearing.
    """
    organization = default_asb_organization()

    def run():
        rows = ["march      ops/cell  VSB(adaptive)[V]"]
        selected = []
        for march in (MATS_PLUS, MARCH_X, MARCH_CM):
            array = FunctionalMemoryArray(
                ctx.tech, organization, ctx.criteria,
                geometry=ctx.geometry,
                corner=ProcessCorner(0.0),
                conditions=ctx.asb_conditions(),
                rng=np.random.default_rng(1234),
            )
            loop = SelfAdaptiveSourceBias(
                controller=BISTController(march=march)
            )
            result = loop.calibrate_bisect(array)
            rows.append(
                f"{march.name:9s}  {march.operation_count:8d}"
                f"  {result.vsb_adaptive:10.3f}"
            )
            selected.append(result.vsb_adaptive)
        return rows, selected

    rows, selected = run()
    save_result("ablation_march_choice", rows)
    assert max(selected) - min(selected) <= 0.011  # within ~2 DAC steps


def test_ablation_monitor_offset(ctx, save_result):
    """Comparator offset sensitivity of the corner binning.

    Sweeps an input-referred comparator offset and reports the corner
    range that is misbinned; the decision stays correct for offsets
    well beyond a realistic comparator's.
    """
    n_cells = 64 * 1024 * 8

    def run():
        rows = ["offset[% of ref]  misbinned corner range [mV]"]
        widths = []
        for rel_offset in (0.0, 0.02, 0.10):
            monitor = LeakageMonitor.calibrate_references(
                ctx.tech, ctx.geometry, n_cells, n_samples=8_000
            )
            offset = rel_offset * monitor.lower.vref
            shifted = LeakageMonitor(
                monitor.r_sense,
                monitor.upper.vref,
                monitor.lower.vref,
                comparator_offset=offset,
            )
            # Find where the decisions of the two monitors differ.
            corners = np.linspace(-0.08, 0.08, 81)
            differs = []
            for corner in corners:
                rng = np.random.default_rng(3)
                dvt = sample_cell_dvt(ctx.tech, ctx.geometry, rng, 4000)
                cell = SixTCell(ctx.tech, ctx.geometry,
                                ProcessCorner(float(corner)), dvt)
                leakage = n_cells * float(
                    np.mean(cell_leakage(cell).total)
                )
                if monitor.classify(leakage) is not shifted.classify(leakage):
                    differs.append(corner)
            width = (max(differs) - min(differs)) * 1e3 if differs else 0.0
            rows.append(f"{100 * rel_offset:15.0f}  {width:12.1f}")
            widths.append(width)
        return rows, widths

    rows, widths = run()
    save_result("ablation_monitor_offset", rows)
    assert widths[0] == 0.0
    assert widths[1] < 10.0  # a 2% offset moves the bins by < 10 mV


def test_ablation_importance_sampling(ctx, save_result):
    """IS accuracy: sigma-scaled estimates vs plain Monte Carlo.

    At a moderately failing corner both estimators resolve the same
    probability; the IS estimate's standard error is far smaller for
    the same sample budget.
    """
    from repro.sram.metrics import compute_cell_metrics

    corner = ProcessCorner(-0.06)
    n = 60_000

    def estimate(scale, seed):
        sample = importance_sample_dvt(
            ctx.tech, ctx.geometry, np.random.default_rng(seed), n, scale
        )
        cell = SixTCell(ctx.tech, ctx.geometry, corner, sample.dvt)
        metrics = compute_cell_metrics(cell, ctx.conditions)
        fails = ctx.criteria.any_fails(metrics)
        weights = None if scale == 1.0 else sample.weights
        return probability_of(fails, weights)

    def run():
        plain = estimate(1.0, 11)
        weighted = estimate(2.0, 12)
        rows = [
            f"plain MC ({n} samples):  p = {plain.estimate:.3e}"
            f" +/- {plain.stderr:.1e}",
            f"IS scale=2 ({n} samples): p = {weighted.estimate:.3e}"
            f" +/- {weighted.stderr:.1e}",
        ]
        return rows, plain, weighted

    rows, plain, weighted = run()
    save_result("ablation_importance_sampling", rows)
    assert weighted.within(plain, n_sigma=4.0)
    assert weighted.estimate > 0

"""Integration tests: every paper-figure experiment at reduced scale.

These run the actual experiment entry points on the (shared, small)
context and assert the *qualitative shapes* the paper reports — who
wins, where the bathtub bottoms out, which policy trades what.
"""

import numpy as np
import pytest

from repro import observability
from repro.experiments import asb, repair
from repro.experiments.registry import EXPERIMENTS, run_experiment

SHIFTS = np.linspace(-0.1, 0.1, 7)
SIGMAS = np.array([0.02, 0.05])


@pytest.fixture(scope="module")
def ctx(small_ctx):
    return small_ctx


class TestRepairFamily:
    def test_fig2a_bathtub(self, ctx):
        result = repair.fig2a(ctx, shifts=SHIFTS, memory_kbytes=64)
        overall = result.probabilities["any"]
        middle = len(SHIFTS) // 2
        assert overall[0] > 10 * overall[middle]
        assert overall[-1] > 10 * overall[middle]
        # Mechanism asymmetry: read left, access right.
        assert result.probabilities["read"][0] > \
            result.probabilities["access"][0]
        assert result.probabilities["access"][-1] > \
            result.probabilities["read"][-1]
        assert len(result.rows()) == len(SHIFTS) + 1

    def test_fig2b_body_bias_tradeoff(self, ctx):
        result = repair.fig2b(ctx, vbody=np.array([-0.4, 0.0, 0.4]))
        read = result.probabilities["read"]
        access = result.probabilities["access"]
        assert read[0] < read[1] < read[2]      # RBB helps read
        assert access[0] > access[1] > access[2]  # RBB hurts access

    def test_fig2c_repair_improves_yield(self, ctx):
        result = repair.fig2c(ctx, sigmas=SIGMAS, sizes_kbytes=(8,))
        zbb = result.yields[(8, "zbb")]
        rep = result.yields[(8, "self_repair")]
        assert np.all(rep >= zbb - 0.02)
        assert rep[-1] > zbb[-1]  # clear gain at large sigma
        assert result.improvement(8).shape == SIGMAS.shape

    def test_fig3_clt_separation(self, ctx):
        result = repair.fig3(ctx, n_cell_samples=4_000, n_arrays=60)
        assert result.overlap_fraction("cell") > 0.3
        assert result.overlap_fraction("array") < 0.01
        assert any("overlap" in row for row in result.rows())

    def test_fig4b_failures_reduced(self, ctx):
        result = repair.fig4b(ctx, shifts=SHIFTS, memory_kbytes=8)
        # At the extreme corners self-repair removes most failures.  The
        # RBB side collapses; the FBB side improves less (NMOS-only FBB
        # cannot fix the slow PMOS), and the loose test calibration
        # amplifies the residual, hence the asymmetric thresholds.
        assert result.failures_repaired[0] < 0.1 * result.failures_zbb[0]
        assert result.failures_repaired[-1] < 0.5 * result.failures_zbb[-1]

    def test_fig5a_component_shapes(self, ctx):
        result = repair.fig5a(ctx)
        sub, junction = result.subthreshold, result.junction
        gate = result.gate
        assert sub[-1] > sub[0]       # FBB inflates subthreshold
        assert junction[0] > junction[len(junction) // 2]  # RBB inflates BTBT
        assert np.ptp(gate) < 0.01    # gate ~ flat
        interior = result.total[1:-1].min()
        assert result.total[0] > interior
        assert result.total[-1] > interior

    def test_fig5b_spread_compression(self, ctx):
        result = repair.fig5b(ctx, sigma_inter=0.05, n_dies=60,
                              memory_kbytes=8)
        assert result.spread_reduction > 0.2

    def test_fig5c_leakage_yield_recovered(self, ctx):
        result = repair.fig5c(ctx, sigmas=SIGMAS, memory_kbytes=8)
        assert np.all(result.yield_repaired >= result.yield_zbb - 0.02)
        assert result.yield_repaired[-1] > result.yield_zbb[-1]


class TestYieldPin:
    """The yield arrays of Figs. 2c, 5c and 10 at this fixture, exactly
    (``==``, not ``approx``), so the one yield integral cannot drift.

    The values are those of the per-figure integrals it replaced, except
    fig10's VSB(opt) leakage yield at 50 mV: that one depended on the
    per-process salt of Python's ``str`` hash (the standby-power sample
    seed) and is the value of the stable seed used now.
    """

    def test_fig2c(self, ctx):
        result = repair.fig2c(ctx, sigmas=SIGMAS, sizes_kbytes=(8,))
        assert result.yields[(8, "zbb")].tolist() == [
            0.20570191136370408, 0.08448681967128269]
        assert result.yields[(8, "self_repair")].tolist() == [
            0.23083434564681815, 0.20583288525663387]

    def test_fig5c(self, ctx):
        result = repair.fig5c(ctx, sigmas=SIGMAS, memory_kbytes=8)
        assert result.yield_zbb.tolist() == [
            0.911608693929087, 0.7089323867211488]
        assert result.yield_repaired.tolist() == [
            0.9608826680097882, 0.8932578014750844]

    def test_fig10(self, ctx):
        result = asb.fig10(ctx, sigmas=SIGMAS)
        assert {k: v.tolist() for k, v in result.leakage_yield.items()} == {
            "zero": [0.911608693929087, 0.7089323867211488],
            "opt": [1.0, 0.9978541663069197],
            "adaptive": [1.0, 0.9978541663069197],
        }
        assert {k: v.tolist() for k, v in result.hold_yield.items()} == {
            "zero": [1.0, 1.0],
            "opt": [0.9097379005040108, 0.8192967332045917],
            "adaptive": [0.9817797172820306, 0.9739581656096489],
        }

    def test_fig2c_drives_the_parametric_yield_counters(self, ctx):
        observability.reset()
        observability.enable()
        try:
            repair.fig2c(ctx, sigmas=SIGMAS, sizes_kbytes=(8,))
            counters = observability.snapshot()["metrics"]["counters"]
        finally:
            observability.disable()
            observability.reset()
        # Two policies x two sigmas x the 81-point dense grid.
        assert counters["yield.parametric.evaluations"] == 2 * 2 * 81
        assert counters.get("yield.parametric.out_of_range", 0) == 0


class TestAsbFamily:
    def test_fig6_safe_bias_band(self, ctx):
        result = asb.fig6(ctx, shifts=np.linspace(-0.08, 0.08, 5))
        assert np.all(result.vsb_max > 0.3)
        assert np.all(result.vsb_max < 0.635)
        # The high-Vt corner tolerates less source bias than nominal.
        assert result.vsb_max[-1] <= result.vsb_max[len(result.vsb_max) // 2]

    def test_fig8_adaptive_tracks_corner(self, ctx):
        # Generous redundancy: at the loose small-context calibration the
        # static fault rate is high, and this test is about the BIST/
        # model agreement, not about static repairability.
        from repro.sram.array import ArrayOrganization

        org = ArrayOrganization.from_capacity(
            2 * 1024, rows=64, redundancy_fraction=0.15
        )
        result = asb.fig8(ctx, shifts=np.linspace(-0.015, 0.015, 3),
                          organization=org)
        assert result.vsb_opt > 0.3
        assert np.all(result.vsb_adaptive > 0.3)
        # The BIST lands within a few DAC steps of the statistical model.
        assert np.all(np.abs(result.vsb_bist - result.vsb_adaptive) < 0.05)

    def test_fig9_distributions(self, ctx):
        result = asb.fig9(ctx, n_bist_dies=3, n_power_dies=40)
        # Per-corner adaptive spread is negligible (paper's inset).
        assert result.vsb_samples.std() < 0.02
        # Source bias saves big standby power vs VSB=0.
        assert result.power_adaptive.mean() < 0.5 * result.power_zero.mean()

    def test_fig10_policy_tradeoffs(self, ctx):
        result = asb.fig10(ctx, sigmas=SIGMAS)
        for i in range(len(SIGMAS)):
            # Leakage yield: biased policies beat zero bias.
            assert result.leakage_yield["opt"][i] >= \
                result.leakage_yield["zero"][i]
            assert result.leakage_yield["adaptive"][i] >= \
                result.leakage_yield["zero"][i]
            # Hold yield: zero bias is the ideal; adaptive beats opt.
            assert result.hold_yield["zero"][i] >= \
                result.hold_yield["adaptive"][i] - 1e-9
            assert result.hold_yield["adaptive"][i] >= \
                result.hold_yield["opt"][i] - 1e-9


class TestRegistry:
    def test_all_figures_registered(self):
        expected = {"fig2a", "fig2b", "fig2c", "fig3", "fig4b", "fig5a",
                    "fig5b", "fig5c", "fig6", "fig8", "fig9", "fig10"}
        assert set(EXPERIMENTS) == expected

    def test_run_experiment_dispatches(self, ctx):
        result = run_experiment("fig5a", ctx)
        assert hasattr(result, "rows")

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

"""Tests for the self-repairing SRAM pipeline."""

import numpy as np
import pytest

from repro.core.body_bias import BodyBiasGenerator, SelfRepairingSRAM
from repro.core.monitor import CornerBin
from repro.sram.array import ArrayOrganization
from repro.technology.corners import ProcessCorner
from repro.technology.variation import InterDieDistribution


class TestBodyBiasGenerator:
    def test_bias_levels(self):
        generator = BodyBiasGenerator(rbb=-0.4, fbb=0.4)
        assert generator.bias_for(CornerBin.LOW_VT) == -0.4
        assert generator.bias_for(CornerBin.HIGH_VT) == 0.4
        assert generator.bias_for(CornerBin.NOMINAL) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BodyBiasGenerator(rbb=0.1, fbb=0.4)
        with pytest.raises(ValueError):
            BodyBiasGenerator(rbb=-0.4, fbb=-0.1)


@pytest.fixture(scope="module")
def pipeline():
    from repro.experiments.context import ExperimentContext

    # Target 1e-4: deep enough that the 5% redundancy keeps nominal
    # dies alive (memory yield would be identically zero at 1e-2).
    ctx = ExperimentContext(
        target=1e-4, calibration_samples=8_000, analysis_samples=5_000,
        table_grid=7, seed=99,
    )
    organization = ArrayOrganization.from_capacity(
        8 * 1024, rows=64, redundancy_fraction=0.05
    )
    return SelfRepairingSRAM(
        ctx.analyzer(),
        organization,
        table_provider=ctx.table,
        leakage_samples=4_000,
    )


class TestDecision:
    def test_leaky_die_gets_rbb(self, pipeline):
        vbody, bin, _ = pipeline.decide_bias(ProcessCorner(-0.09))
        assert bin is CornerBin.LOW_VT
        assert vbody < 0

    def test_slow_die_gets_fbb(self, pipeline):
        vbody, bin, _ = pipeline.decide_bias(ProcessCorner(0.09))
        assert bin is CornerBin.HIGH_VT
        assert vbody > 0

    def test_nominal_die_unbiased(self, pipeline):
        vbody, bin, _ = pipeline.decide_bias(ProcessCorner(0.0))
        assert bin is CornerBin.NOMINAL
        assert vbody == 0.0

    def test_noisy_measurement_mode(self, pipeline):
        rng = np.random.default_rng(3)
        vbody, bin, measured = pipeline.decide_bias(
            ProcessCorner(-0.09), rng
        )
        assert measured > 0
        assert bin is CornerBin.LOW_VT  # CLT noise is tiny at array scale


class TestRepairOutcomes:
    def test_repair_reduces_failure_at_leaky_corner(self, pipeline):
        outcome = pipeline.repair(ProcessCorner(-0.09))
        assert outcome.vbody < 0
        assert outcome.p_cell_after < outcome.p_cell_before
        assert outcome.p_memory_after <= outcome.p_memory_before

    def test_repair_reduces_leakage_at_leaky_corner(self, pipeline):
        outcome = pipeline.repair(ProcessCorner(-0.09))
        assert outcome.leakage_after < outcome.leakage_before

    def test_fbb_raises_leakage_back_toward_nominal(self, pipeline):
        """FBB trades leakage for speed on a slow die: leakage goes up,
        toward (but not beyond a few x of) the nominal level."""
        outcome = pipeline.repair(ProcessCorner(0.09))
        assert outcome.leakage_after > outcome.leakage_before
        nominal = pipeline.array_leakage(ProcessCorner(0.0), 0.0).mean
        assert outcome.leakage_after < 5 * nominal

    def test_nominal_die_untouched(self, pipeline):
        outcome = pipeline.repair(ProcessCorner(0.0))
        assert outcome.vbody == 0.0
        assert outcome.p_cell_after == outcome.p_cell_before


class TestYields:
    def test_repaired_yield_dominates_zbb(self, pipeline):
        for sigma in (0.03, 0.05):
            dist = InterDieDistribution(sigma)
            zbb = pipeline.parametric_yield(dist, repaired=False)
            rep = pipeline.parametric_yield(dist, repaired=True)
            assert rep >= zbb - 0.02  # allow tiny integration noise

    def test_yield_decreases_with_sigma(self, pipeline):
        narrow = pipeline.parametric_yield(
            InterDieDistribution(0.02), repaired=False
        )
        wide = pipeline.parametric_yield(
            InterDieDistribution(0.06), repaired=False
        )
        assert wide < narrow

    def test_leakage_yield_improves_with_repair(self, pipeline):
        dist = InterDieDistribution(0.05)
        l_max = 2.0 * pipeline.array_leakage(ProcessCorner(0.0), 0.0).mean
        zbb = pipeline.leakage_yield(dist, l_max, repaired=False)
        rep = pipeline.leakage_yield(dist, l_max, repaired=True)
        assert rep > zbb

    def test_leakage_spread_compression(self, pipeline):
        """Repaired corner leakages sit closer to nominal than unbiased."""
        nominal = pipeline.array_leakage(ProcessCorner(0.0), 0.0).mean
        spread_zbb = []
        spread_rep = []
        for corner in (ProcessCorner(-0.09), ProcessCorner(0.09)):
            vbody = pipeline.decide_bias(corner)[0]
            spread_zbb.append(
                abs(np.log(pipeline.array_leakage(corner, 0.0).mean / nominal))
            )
            spread_rep.append(
                abs(np.log(pipeline.array_leakage(corner, vbody).mean / nominal))
            )
        assert sum(spread_rep) < sum(spread_zbb)

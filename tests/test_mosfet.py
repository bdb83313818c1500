"""Tests for the EKV-style compact MOSFET model."""

import numpy as np
import pytest

from repro.devices import make_nmos, make_pmos


@pytest.fixture(scope="module")
def nmos(tech=None):
    from repro.technology import predictive_70nm

    return make_nmos(predictive_70nm(), width=200e-9)


@pytest.fixture(scope="module")
def pmos():
    from repro.technology import predictive_70nm

    return make_pmos(predictive_70nm(), width=100e-9)


class TestThreshold:
    def test_body_effect_raises_vth(self, nmos):
        assert nmos.threshold(vsb=0.4) > nmos.threshold(vsb=0.0)

    def test_forward_body_bias_lowers_vth(self, nmos):
        assert nmos.threshold(vsb=-0.4) < nmos.threshold(vsb=0.0)

    def test_body_effect_clamps_under_deep_fbb(self, nmos):
        # The depletion sqrt argument is floored; vth stays finite/real.
        vth = nmos.threshold(vsb=-2.0)
        assert np.isfinite(vth)

    def test_dibl_lowers_vth_with_vds(self, nmos):
        assert nmos.threshold(vds=1.0) < nmos.threshold(vds=0.0)
        expected = nmos.params.dibl * 1.0
        delta = nmos.threshold(vds=0.0) - nmos.threshold(vds=1.0)
        assert delta == pytest.approx(expected)

    def test_dvt_shifts_threshold_directly(self, nmos):
        shifted = nmos.with_dvt(0.05)
        assert shifted.threshold() == pytest.approx(nmos.threshold() + 0.05)


class TestDrainCurrent:
    def test_on_current_magnitude(self, nmos, pmos):
        # Healthy sub-90nm drive strengths: hundreds of uA for these widths.
        assert 50e-6 < float(nmos.on_current(1.0)) < 1e-3
        assert 5e-6 < float(pmos.on_current(1.0)) < 3e-4

    def test_current_increases_with_vgs(self, nmos):
        vgs = np.linspace(0.0, 1.0, 21)
        i = nmos.current(vg=vgs, vd=1.0, vs=0.0, vb=0.0)
        assert np.all(np.diff(i) > 0)

    def test_current_increases_with_vds(self, nmos):
        vds = np.linspace(0.0, 1.0, 21)
        i = nmos.current(vg=1.0, vd=vds, vs=0.0, vb=0.0)
        assert np.all(np.diff(i) > 0)
        assert i[0] == pytest.approx(0.0, abs=1e-15)

    def test_current_odd_in_vds(self, nmos):
        forward = nmos.current(vg=0.8, vd=0.3, vs=0.0, vb=0.0)
        reverse = nmos.current(vg=0.8, vd=0.0, vs=0.3, vb=0.0)
        assert float(forward) == pytest.approx(-float(reverse), rel=1e-9)

    def test_subthreshold_slope(self, nmos):
        """Deep below threshold: one decade per n*Ut*ln10 of Vgs."""
        i1 = float(nmos.current(vg=-0.05, vd=1.0, vs=0.0, vb=0.0))
        i2 = float(nmos.current(vg=-0.10, vd=1.0, vs=0.0, vb=0.0))
        swing = 0.05 / np.log10(i1 / i2)
        expected = nmos.params.n_sub * nmos.ut * np.log(10)
        assert swing == pytest.approx(expected, rel=0.02)

    def test_square_law_in_strong_inversion(self, nmos):
        """Saturation current grows super-linearly with overdrive."""
        i1 = float(nmos.current(vg=0.6, vd=1.2, vs=0.0, vb=0.0))
        i2 = float(nmos.current(vg=1.0, vd=1.2, vs=0.0, vb=0.0))
        ratio = i2 / i1
        assert ratio > 2.0  # more than linear in the ~2.1x overdrive step

    def test_rbb_reduces_off_current(self, nmos):
        off_zbb = float(nmos.subthreshold_current(1.0, vsb=0.0))
        off_rbb = float(nmos.subthreshold_current(1.0, vsb=0.4))
        off_fbb = float(nmos.subthreshold_current(1.0, vsb=-0.4))
        assert off_rbb < off_zbb < off_fbb
        assert off_zbb / off_rbb > 2.0

    def test_pmos_on_current_convention_positive(self, pmos):
        assert float(pmos.on_current(1.0)) > 0.0

    def test_vectorised_dvt(self, nmos):
        population = nmos.with_dvt(np.array([0.0, 0.05, -0.05]))
        i = population.current(vg=1.0, vd=1.0, vs=0.0, vb=0.0)
        assert i.shape == (3,)
        assert i[2] > i[0] > i[1]  # lower Vt -> more current

    def test_width_scaling(self):
        from repro.technology import predictive_70nm

        tech = predictive_70nm()
        narrow = make_nmos(tech, width=100e-9)
        wide = make_nmos(tech, width=400e-9)
        ratio = float(wide.on_current(1.0)) / float(narrow.on_current(1.0))
        assert ratio == pytest.approx(4.0, rel=1e-6)

    def test_invalid_construction(self):
        from repro.technology import predictive_70nm
        from repro.devices import make_mosfet

        tech = predictive_70nm()
        with pytest.raises(ValueError):
            make_mosfet(tech, "nfet", width=100e-9)
        with pytest.raises(ValueError):
            make_nmos(tech, width=-1e-9)


def _first_written_ids(device, vgs, vds, vsb):
    """The EKV drain current for normalised voltages, as first written."""
    from repro.devices.mosfet import _PHI_FLOOR, _T_REF

    p = device.params
    ut = device.ut
    vgs = np.asarray(vgs, dtype=float)
    vds = np.asarray(vds, dtype=float)
    depletion = np.sqrt(np.maximum(p.phi_s + np.asarray(vsb, dtype=float),
                                   _PHI_FLOOR))
    body = p.gamma * (depletion - np.sqrt(p.phi_s))
    vth0 = p.vth0 - p.vth_tempco * (device.temperature - _T_REF)
    vth = vth0 + np.asarray(device.dvt, dtype=float) + body - p.dibl * vds
    overdrive = vgs - vth
    mu_t = p.mobility * (device.temperature / _T_REF) ** (
        -p.mobility_temp_exponent
    )
    mu_eff = mu_t / (1.0 + p.theta * np.maximum(overdrive, 0.0))
    i_spec = 2.0 * p.n_sub * mu_eff * device.cox * (device.width / device.length) * ut * ut
    x_fwd = overdrive / (p.n_sub * ut)
    x_rev = (overdrive - p.n_sub * vds) / (p.n_sub * ut)

    def ekv_f(x):
        return np.square(np.logaddexp(0.0, np.asarray(x, dtype=float) / 2.0))

    return i_spec * (ekv_f(x_fwd) - ekv_f(x_rev))


def two_orientation_current(device, vg, vd, vs, vb):
    """``MOSFET.current`` as first written: the model evaluated in both
    orientations and the right one picked per element.  The shipped
    method evaluates once on the voltage-ordered terminals; it must give
    the same bits."""
    s = device.sign
    vg = s * np.asarray(vg, dtype=float)
    vd = s * np.asarray(vd, dtype=float)
    vs = s * np.asarray(vs, dtype=float)
    vb = s * np.asarray(vb, dtype=float)
    vds = vd - vs
    forward = vds >= 0.0
    i_fwd = _first_written_ids(device, vg - vs, np.maximum(vds, 0.0), vs - vb)
    i_rev = _first_written_ids(device, vg - vd, np.maximum(-vds, 0.0), vd - vb)
    return np.where(forward, i_fwd, -i_rev)


def assert_same_bits(actual, expected):
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected, equal_nan=True)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


class TestSingleEvaluation:
    """One model evaluation per call reproduces the two-orientation
    formula bit for bit, in every orientation and broadcast."""

    BIASES = np.linspace(-0.2, 1.2, 15)

    @pytest.mark.parametrize("polarity", ["nmos", "pmos"])
    def test_vds_negative_zero_and_positive(self, nmos, pmos, polarity):
        device = nmos if polarity == "nmos" else pmos
        vd, vs = np.meshgrid(self.BIASES, self.BIASES)
        for vb in (-0.3, 0.0, 0.3, 1.0):
            for vg in (0.0, 0.45, 1.0):
                assert_same_bits(
                    device.current(vg=vg, vd=vd, vs=vs, vb=vb),
                    two_orientation_current(device, vg, vd, vs, vb),
                )
        assert np.any(vd == vs) and np.any(vd < vs) and np.any(vd > vs)

    @pytest.mark.parametrize("polarity", ["nmos", "pmos"])
    def test_signed_zero_vds(self, nmos, pmos, polarity):
        device = nmos if polarity == "nmos" else pmos
        # PMOS flips signs: vd = 0.0 and vs = -0.0 become -0.0 and 0.0,
        # so the normalised vds is -0.0 (forward, by ``vds >= 0``).
        for vd, vs in ((0.0, -0.0), (-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0)):
            for vg in (0.0, -1.0, 1.0):
                assert_same_bits(
                    device.current(vg=vg, vd=vd, vs=vs, vb=0.0),
                    two_orientation_current(device, vg, vd, vs, 0.0),
                )
        zero = np.array([0.0, -0.0, 0.3])
        assert_same_bits(
            device.current(vg=1.0, vd=zero, vs=-zero, vb=0.0),
            two_orientation_current(device, 1.0, zero, -zero, 0.0),
        )

    @pytest.mark.parametrize("polarity", ["nmos", "pmos"])
    def test_scalar_and_array_dvt_broadcast(self, nmos, pmos, polarity):
        device = nmos if polarity == "nmos" else pmos
        rng = np.random.default_rng(7)
        dvt = rng.normal(0.0, 0.05, 64)
        vd = self.BIASES[:, None]
        for shifted in (device.with_dvt(0.03), device.with_dvt(dvt)):
            expected = two_orientation_current(shifted, 0.8, vd, 0.4, 0.1)
            actual = shifted.current(vg=0.8, vd=vd, vs=0.4, vb=0.1)
            assert_same_bits(actual, expected)
        assert actual.shape == (self.BIASES.size, dvt.size)

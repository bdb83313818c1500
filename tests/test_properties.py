"""Property-based tests (hypothesis) on core physical invariants.

These lock in the *monotonicities* everything else rests on: the device
model, the cell solvers, the statistics.  Each property is checked over
randomly drawn (but bounded, physical) parameter ranges.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import make_nmos, make_pmos
from repro.failures import (
    column_failure_probability,
    memory_failure_probability,
)
from repro.sram.array import ArrayOrganization
from repro.sram.cell import CellGeometry, SixTCell
from repro.sram.solver import (
    bisect_monotone,
    solve_read_node,
    solve_write_time,
)
from repro.stats.montecarlo import weighted_quantile
from repro.technology import predictive_70nm
from repro.technology.corners import ProcessCorner

TECH = predictive_70nm()

voltages = st.floats(min_value=0.0, max_value=1.2)
biases = st.floats(min_value=-0.4, max_value=0.4)
shifts = st.floats(min_value=-0.12, max_value=0.12)
widths = st.floats(min_value=80e-9, max_value=500e-9)


class TestDeviceProperties:
    @given(vg=voltages, vd=voltages, vb=biases)
    @settings(max_examples=60, deadline=None)
    def test_nmos_current_sign_follows_vds(self, vg, vd, vb):
        """Channel current is zero at vds=0 and has the sign of vds."""
        nmos = make_nmos(TECH, width=200e-9)
        i = float(nmos.current(vg=vg, vd=vd, vs=0.0, vb=vb))
        if vd > 1e-9:
            assert i > 0
        elif vd < -1e-9:
            assert i < 0

    @given(vg=voltages, vb=biases)
    @settings(max_examples=40, deadline=None)
    def test_current_monotone_in_vd(self, vg, vb):
        nmos = make_nmos(TECH, width=200e-9)
        vd = np.linspace(0.0, 1.2, 25)
        i = nmos.current(vg=vg, vd=vd, vs=0.0, vb=vb)
        assert np.all(np.diff(i) >= -1e-18)

    @given(vd=st.floats(min_value=0.05, max_value=1.2), vb=biases)
    @settings(max_examples=40, deadline=None)
    def test_current_monotone_in_vg(self, vd, vb):
        nmos = make_nmos(TECH, width=140e-9)
        vg = np.linspace(-0.2, 1.2, 25)
        i = nmos.current(vg=vg, vd=vd, vs=0.0, vb=vb)
        assert np.all(np.diff(i) > 0)

    @given(dvt=shifts, vsb=st.floats(min_value=0.0, max_value=0.5))
    @settings(max_examples=40, deadline=None)
    def test_off_current_decreases_with_vth(self, dvt, vsb):
        base = make_nmos(TECH, width=200e-9, dvt=dvt)
        higher = make_nmos(TECH, width=200e-9, dvt=dvt + 0.02)
        assert float(higher.subthreshold_current(1.0, vsb)) < float(
            base.subthreshold_current(1.0, vsb)
        )

    @given(w=widths)
    @settings(max_examples=30, deadline=None)
    def test_current_proportional_to_width(self, w):
        narrow = make_pmos(TECH, width=w)
        wide = make_pmos(TECH, width=2 * w)
        ratio = float(wide.on_current(1.0)) / float(narrow.on_current(1.0))
        assert ratio == pytest.approx(2.0, rel=1e-9)


class TestSolverProperties:
    @given(targets=st.lists(
        st.floats(min_value=0.01, max_value=0.99), min_size=1, max_size=8
    ))
    @settings(max_examples=40, deadline=None)
    def test_bisection_solves_affine_families(self, targets):
        arr = np.array(targets)
        roots = bisect_monotone(lambda v: arr - v, 0.0, 1.0, arr.shape)
        np.testing.assert_allclose(roots, arr, atol=1e-7)

    @given(dvt_ax=st.floats(min_value=-0.08, max_value=0.08))
    @settings(max_examples=20, deadline=None)
    def test_stronger_access_raises_v_read(self, dvt_ax):
        """Lowering only the access transistor's Vt raises the disturb."""
        base = {k: np.array([0.0]) for k in
                ("pl", "pr", "nl", "nr", "axl", "axr")}
        weaker = dict(base)
        weaker["axr"] = np.array([dvt_ax])
        geometry = CellGeometry()
        cell_a = SixTCell(TECH, geometry, ProcessCorner(0.0), base)
        cell_b = SixTCell(TECH, geometry, ProcessCorner(0.0), weaker)
        v_a = float(np.atleast_1d(solve_read_node(cell_a, 1.0))[0])
        v_b = float(np.atleast_1d(solve_read_node(cell_b, 1.0))[0])
        if dvt_ax < -1e-4:
            assert v_b > v_a  # stronger access -> bigger disturb
        elif dvt_ax > 1e-4:
            assert v_b < v_a

    @given(shift=st.floats(min_value=0.0, max_value=0.1))
    @settings(max_examples=15, deadline=None)
    def test_write_time_monotone_in_corner(self, shift):
        geometry = CellGeometry()
        fast = SixTCell(TECH, geometry, ProcessCorner(0.0))
        slow = SixTCell(TECH, geometry, ProcessCorner(shift))
        t_fast = float(np.atleast_1d(solve_write_time(fast, 1.0))[0])
        t_slow = float(np.atleast_1d(solve_write_time(slow, 1.0))[0])
        assert t_slow >= t_fast


class TestStatisticsProperties:
    @given(
        p=st.floats(min_value=1e-9, max_value=0.5),
        rows=st.integers(min_value=1, max_value=1024),
    )
    @settings(max_examples=60, deadline=None)
    def test_column_probability_bounds(self, p, rows):
        p_col = float(column_failure_probability(p, rows))
        assert p <= p_col + 1e-15
        assert p_col <= min(1.0, rows * p) + 1e-12

    @given(
        p=st.floats(min_value=1e-8, max_value=0.2),
        redundancy=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_memory_probability_monotone_in_redundancy(self, p, redundancy):
        a = ArrayOrganization(rows=64, columns=128,
                              redundant_columns=redundancy)
        b = ArrayOrganization(rows=64, columns=128,
                              redundant_columns=redundancy + 1)
        assert memory_failure_probability(p, b) <= \
            memory_failure_probability(p, a) + 1e-15

    @given(
        values=st.lists(
            st.floats(min_value=-100, max_value=100), min_size=2, max_size=50
        ),
        q=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_weighted_quantile_is_a_sample_value(self, values, q):
        arr = np.array(values)
        w = np.ones_like(arr)
        result = weighted_quantile(arr, w, q)
        assert result in arr

    @given(
        q1=st.floats(min_value=0.05, max_value=0.45),
        q2=st.floats(min_value=0.55, max_value=0.95),
    )
    @settings(max_examples=30, deadline=None)
    def test_weighted_quantile_monotone_in_q(self, q1, q2):
        rng = np.random.default_rng(0)
        values = rng.normal(size=1000)
        w = rng.uniform(0.5, 2.0, size=1000)
        assert weighted_quantile(values, w, q1) <= weighted_quantile(
            values, w, q2
        )


class TestEccProperties:
    @given(
        data=st.lists(st.integers(min_value=0, max_value=1),
                      min_size=64, max_size=64),
        position=st.integers(min_value=0, max_value=71),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_single_flip_is_corrected(self, data, position):
        from repro.sram.ecc import HammingSecDed

        code = HammingSecDed(64)
        word = code.encode(np.array(data, dtype=np.uint8))
        corrupted = word.copy()
        corrupted[position] ^= 1
        decoded = code.decode(corrupted[None, :])
        np.testing.assert_array_equal(decoded.data[0], data)
        assert not decoded.detected[0]

    @given(
        data=st.lists(st.integers(min_value=0, max_value=1),
                      min_size=64, max_size=64),
    )
    @settings(max_examples=30, deadline=None)
    def test_clean_words_pass_untouched(self, data):
        from repro.sram.ecc import HammingSecDed

        code = HammingSecDed(64)
        word = code.encode(np.array(data, dtype=np.uint8))
        decoded = code.decode(word[None, :])
        np.testing.assert_array_equal(decoded.data[0], data)
        assert not decoded.corrected[0]


class TestTimingProperties:
    @given(rows=st.integers(min_value=16, max_value=1024))
    @settings(max_examples=20, deadline=None)
    def test_access_time_monotone_in_rows(self, rows):
        from repro.sram.array import ArrayOrganization
        from repro.sram.timing import access_time

        cell = SixTCell(TECH, CellGeometry(), ProcessCorner(0.0))
        small = ArrayOrganization(rows=rows, columns=8, redundant_columns=1)
        large = ArrayOrganization(rows=rows + 64, columns=8,
                                  redundant_columns=1)
        t_small = float(np.atleast_1d(access_time(cell, small, 1.0))[0])
        t_large = float(np.atleast_1d(access_time(cell, large, 1.0))[0])
        assert t_large > t_small


class TestRepairProperties:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        density=st.floats(min_value=0.0, max_value=0.15),
    )
    @settings(max_examples=40, deadline=None)
    def test_successful_plans_always_cover(self, seed, density):
        from repro.sram.repair import allocate_rows_and_columns

        rng = np.random.default_rng(seed)
        fail_map = rng.random((10, 10)) < density
        plan = allocate_rows_and_columns(fail_map, spare_rows=2,
                                         spare_columns=2)
        if plan.success:
            assert plan.covers(fail_map)
            assert len(plan.rows) <= 2
            assert len(plan.columns) <= 2

"""Tests for the vectorised cell solvers, including their physics trends."""

import time

import numpy as np
import pytest

from repro.sram.cell import TRANSISTORS, SixTCell, sample_cell_dvt
from repro.sram.solver import (
    bisect_monotone,
    solve_access_current,
    solve_hold_state,
    solve_inverter_trip,
    solve_read_node,
    solve_read_trip,
    solve_write_node,
    solve_write_time,
    solve_write_trip,
)
from repro.technology.corners import ProcessCorner


def scalar(value):
    """Collapse a size-1 solver output to a Python float."""
    return float(np.asarray(value).reshape(-1)[0])


class TestBisection:
    def test_linear_root(self):
        root = bisect_monotone(lambda v: 0.5 - v, 0.0, 1.0, (1,))
        assert root[0] == pytest.approx(0.5, abs=1e-8)

    def test_vectorised_roots(self):
        targets = np.array([0.1, 0.4, 0.9])
        roots = bisect_monotone(lambda v: targets - v, 0.0, 1.0, (3,))
        np.testing.assert_allclose(roots, targets, atol=1e-8)

    def test_clamps_to_bracket_when_no_sign_change(self):
        high = bisect_monotone(lambda v: np.full_like(v, 1.0), 0.0, 1.0, (1,))
        low = bisect_monotone(lambda v: np.full_like(v, -1.0), 0.0, 1.0, (1,))
        assert high[0] == pytest.approx(1.0, abs=1e-6)
        assert low[0] == pytest.approx(0.0, abs=1e-6)


@pytest.fixture(scope="module")
def nominal_cell():
    from repro.sram.cell import CellGeometry
    from repro.technology import predictive_70nm

    return SixTCell(predictive_70nm(), CellGeometry(), ProcessCorner(0.0))


class TestReadSolves:
    def test_v_read_between_rails(self, nominal_cell):
        v = solve_read_node(nominal_cell, 1.0)
        assert 0.0 < scalar(v) < 0.5  # a healthy cell keeps the disturb low

    def test_v_read_below_trip(self, nominal_cell):
        v_read = scalar(solve_read_node(nominal_cell, 1.0))
        v_trip = scalar(solve_read_trip(nominal_cell, 1.0))
        assert v_read < v_trip

    def test_stronger_pull_down_lowers_v_read(self, tech):
        from repro.sram.cell import CellGeometry

        weak = SixTCell(tech, CellGeometry(w_pull_down=150e-9))
        strong = SixTCell(tech, CellGeometry(w_pull_down=300e-9))
        assert scalar(solve_read_node(strong, 1.0)) < scalar(
            solve_read_node(weak, 1.0)
        )

    def test_rbb_reduces_v_read(self, nominal_cell):
        zbb = scalar(solve_read_node(nominal_cell, 1.0, vbody_n=0.0))
        rbb = scalar(solve_read_node(nominal_cell, 1.0, vbody_n=-0.4))
        assert rbb < zbb

    def test_rbb_raises_read_trip(self, nominal_cell):
        zbb = scalar(solve_read_trip(nominal_cell, 1.0, vbody_n=0.0))
        rbb = scalar(solve_read_trip(nominal_cell, 1.0, vbody_n=-0.4))
        assert rbb > zbb


class TestWriteSolves:
    def test_write_node_below_trip(self, nominal_cell):
        v_write = scalar(solve_write_node(nominal_cell, 1.0))
        v_trip = scalar(solve_write_trip(nominal_cell, 1.0))
        assert v_write < v_trip

    def test_write_time_positive_and_finite(self, nominal_cell):
        t = scalar(solve_write_time(nominal_cell, 1.0))
        assert 0.0 < t < 1e-9

    def test_rbb_slows_the_write(self, nominal_cell):
        t_zbb = scalar(solve_write_time(nominal_cell, 1.0, vbody_n=0.0))
        t_rbb = scalar(solve_write_time(nominal_cell, 1.0, vbody_n=-0.4))
        assert t_rbb > t_zbb

    def test_high_vt_corner_slows_the_write(self, nominal_cell):
        slow = nominal_cell.at_corner(ProcessCorner(0.1))
        assert scalar(solve_write_time(slow, 1.0)) > scalar(
            solve_write_time(nominal_cell, 1.0)
        )

    def test_static_write_failure_is_infinite(self, tech):
        """A huge pull-up against a sliver of an access device: no write."""
        from repro.sram.cell import CellGeometry

        unwritable = SixTCell(
            tech, CellGeometry(w_pull_up=2000e-9, w_access=40e-9)
        )
        assert np.isinf(scalar(solve_write_time(unwritable, 1.0)))

    def test_odd_point_count_required(self, nominal_cell):
        with pytest.raises(ValueError):
            solve_write_time(nominal_cell, 1.0, n_points=8)


class TestAccessSolve:
    def test_access_current_magnitude(self, nominal_cell):
        i = scalar(solve_access_current(nominal_cell, 1.0))
        assert 1e-5 < i < 1e-3

    def test_rbb_reduces_access_current(self, nominal_cell):
        assert scalar(solve_access_current(nominal_cell, 1.0, -0.4)) < scalar(
            solve_access_current(nominal_cell, 1.0, 0.0)
        )

    def test_high_vt_corner_reduces_access_current(self, nominal_cell):
        slow = nominal_cell.at_corner(ProcessCorner(0.1))
        assert scalar(solve_access_current(slow, 1.0)) < scalar(
            solve_access_current(nominal_cell, 1.0)
        )


class TestHoldSolve:
    def test_healthy_cell_retains_full_rail(self, nominal_cell):
        vl, vr = solve_hold_state(nominal_cell, vdd_standby=0.8)
        assert scalar(vl) > 0.75
        assert scalar(vr) < 0.05

    def test_source_bias_raises_zero_node(self, nominal_cell):
        _, vr = solve_hold_state(nominal_cell, vdd_standby=0.8, vsb=0.3)
        assert scalar(vr) == pytest.approx(0.3, abs=0.05)

    def test_differential_shrinks_with_source_bias(self, nominal_cell):
        margins = []
        for vsb in (0.0, 0.3, 0.5):
            vl, vr = solve_hold_state(nominal_cell, 0.8, vsb=vsb)
            margins.append(scalar(vl - vr))
        assert margins[0] > margins[1] > margins[2]

    def test_leaky_cell_droops(self, tech, geometry):
        """A strongly low-Vt NL leaks the '1' node down at low standby."""
        dvt = {name: np.array([0.0]) for name in
               ("pl", "pr", "nl", "nr", "axl", "axr")}
        dvt["nl"] = np.array([-0.15])
        dvt["pl"] = np.array([+0.15])  # weak pull-up, leaky pull-down
        frail = SixTCell(tech, geometry, ProcessCorner(0.0), dvt)
        healthy = SixTCell(tech, geometry, ProcessCorner(0.0))
        vl_frail, _ = solve_hold_state(frail, vdd_standby=0.3)
        vl_ok, _ = solve_hold_state(healthy, vdd_standby=0.3)
        assert scalar(vl_frail) < scalar(vl_ok) - 0.02

    def test_vectorised_population(self, tech, geometry, rng):
        dvt = sample_cell_dvt(tech, geometry, rng, 500)
        cell = SixTCell(tech, geometry, ProcessCorner(0.0), dvt)
        vl, vr = solve_hold_state(cell, vdd_standby=0.3)
        assert vl.shape == (500,)
        assert np.all(vl > vr)  # at nominal 0.3 V nearly all cells retain

    def test_inverter_trip_between_rails(self, nominal_cell):
        vm = solve_inverter_trip(
            nominal_cell.device("pl"), nominal_cell.device("nl"), 1.0
        )
        assert 0.1 < scalar(vm) < 0.9


#: Population size of the kernel checks (one sweep point's work).
N_CELLS = 20_000

#: Minimum metric-engine throughput [cells/s].  Typical hardware
#: delivers 7-30k cells/s; the floor sits ~3x below the slowest machine
#: measured so only an algorithmic regression, not scheduler jitter or
#: a loaded box, can trip it.
THROUGHPUT_FLOOR = 2_000


@pytest.fixture(scope="module")
def population():
    from repro.sram.cell import CellGeometry
    from repro.technology import predictive_70nm

    tech = predictive_70nm()
    geometry = CellGeometry()
    dvt = sample_cell_dvt(tech, geometry, np.random.default_rng(1), N_CELLS)
    return SixTCell(tech, geometry, ProcessCorner(0.0), dvt)


class TestPopulationKernels:
    def test_read_and_hold_solves(self, population):
        v_read = solve_read_node(population, 1.0)
        assert v_read.shape == (N_CELLS,)
        assert float(np.mean(v_read)) < 0.5
        vl, vr = solve_hold_state(population, 0.3)
        assert vl.shape == vr.shape == (N_CELLS,)
        assert np.all(vl >= vr)

    def test_leakage_shape(self, population):
        from repro.sram.leakage import cell_leakage

        assert cell_leakage(population).total.shape == (N_CELLS,)

    def test_metric_engine_throughput_floor(self, population):
        from repro.sram.metrics import OperatingConditions, compute_cell_metrics

        conditions = OperatingConditions.nominal(population.tech)
        start = time.perf_counter()
        metrics = compute_cell_metrics(population, conditions)
        rate = N_CELLS / (time.perf_counter() - start)
        assert metrics.v_read.shape == (N_CELLS,)
        assert rate > THROUGHPUT_FLOOR, (
            f"metric engine measured {rate:.0f} cells/s, below the "
            f"{THROUGHPUT_FLOOR} cells/s floor"
        )


# ----------------------------------------------------------------------
# Exactness of the fast root solve against the defining bisection
# ----------------------------------------------------------------------
def reference_bisect(net_current, lo, hi, shape, iters=30, guess=None):
    """``bisect_monotone`` as first written: ``iters`` plain bisection
    steps, one evaluation each.  The shipped solver must return the same
    bits; ``guess`` only steers its estimate, so it is ignored here."""
    lo_v = np.full(shape, float(lo))
    hi_v = np.full(shape, float(hi))
    for _ in range(iters):
        mid = 0.5 * (lo_v + hi_v)
        positive = net_current(mid) > 0.0
        lo_v = np.where(positive, mid, lo_v)
        hi_v = np.where(positive, hi_v, mid)
    return 0.5 * (lo_v + hi_v)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.shape == b.shape
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


def counting(net):
    """``net`` plus a call counter (``counted.calls``)."""
    def counted(v):
        counted.calls += 1
        return net(v)

    counted.calls = 0
    return counted


def scaled_population(tech, geometry, n, sigmas, seed):
    dvt = sample_cell_dvt(tech, geometry, np.random.default_rng(seed), n)
    return SixTCell(
        tech, geometry, ProcessCorner(0.0),
        {name: sigmas * values for name, values in dvt.items()},
    )


@pytest.fixture()
def checked_bisect(monkeypatch):
    """Every solver root also solved by the reference loop, compared
    bit for bit; yields the list of (net calls, elements) per root."""
    import repro.sram.solver as solver

    fast = solver.bisect_monotone
    roots = []

    def both(net_current, lo, hi, shape, iters=30, guess=None):
        counted = counting(net_current)
        got = fast(counted, lo, hi, shape, iters, guess=guess)
        want = reference_bisect(net_current, lo, hi, shape, iters)
        assert same_bits(got, want), (lo, hi, shape)
        roots.append((counted.calls, int(np.prod(shape))))
        return got

    monkeypatch.setattr(solver, "bisect_monotone", both)
    return roots


class TestBisectionIsExact:
    def test_cell_nets_at_three_sigma(self, tech, geometry, checked_bisect):
        from repro.sram.metrics import (
            OperatingConditions,
            compute_cell_metrics,
            compute_hold_margin,
        )

        cell = scaled_population(tech, geometry, 1_000, 3.0, seed=3)
        nominal = OperatingConditions.nominal(tech)
        for vbody in (-0.3, 0.0, 0.3):  # standby rail 0.3 * VDD
            compute_cell_metrics(cell, nominal.with_body_bias(vbody))
        for vsb in (0.0, 0.45):  # standby rail 0.8 * VDD
            compute_hold_margin(
                cell, OperatingConditions.source_biased_standby(tech, vsb)
            )
        assert len(checked_bisect) > 3 * 5

    @pytest.mark.parametrize("value", [1.0, -1.0])
    def test_no_sign_change_clamps_like_the_loop(self, value):
        net = lambda v: np.full_like(v, value)  # noqa: E731
        assert same_bits(
            bisect_monotone(net, 0.0, 1.0, (4,)),
            reference_bisect(net, 0.0, 1.0, (4,)),
        )

    def test_mixed_clamps_and_roots(self):
        targets = np.array([-0.5, 0.0, 1e-12, 0.3, 0.8 - 1e-12, 0.8, 1.7])
        net = lambda v: targets - v  # noqa: E731
        assert same_bits(
            bisect_monotone(net, 0.0, 0.8, targets.shape),
            reference_bisect(net, 0.0, 0.8, targets.shape),
        )

    def test_roots_exactly_at_dyadic_midpoints(self):
        # net == 0 at a midpoint is a non-positive decision.
        targets = np.array([0.5, 0.25, 0.375, 3 / 1024, 1 - 2.0**-30, 2.0**-30])
        for net in (lambda v: targets - v, lambda v: np.tanh(targets - v)):
            assert same_bits(
                bisect_monotone(net, 0.0, 1.0, targets.shape),
                reference_bisect(net, 0.0, 1.0, targets.shape),
            )

    @pytest.mark.parametrize("iters", [1, 2, 7, 29, 31, 45, 60])
    def test_other_iteration_counts(self, iters):
        targets = np.linspace(-0.1, 1.1, 37) ** 3
        net = lambda v: np.sinh(targets - v)  # noqa: E731
        assert same_bits(
            bisect_monotone(net, -0.2, 1.2, targets.shape, iters),
            reference_bisect(net, -0.2, 1.2, targets.shape, iters),
        )

    def test_guess_never_changes_the_result(self):
        targets = np.linspace(0.01, 0.79, 50)
        net = lambda v: np.expm1(8 * (targets - v))  # noqa: E731
        want = reference_bisect(net, 0.0, 0.8, targets.shape)
        for guess in (targets, 0.8 - targets, np.zeros(50), np.full(50, 0.8)):
            assert same_bits(
                bisect_monotone(net, 0.0, 0.8, targets.shape, guess=guess),
                want,
            )

    def test_plateau_falls_back_to_the_loop(self):
        """net == 0 on [0.3, 0.6]: the estimate lands on the plateau, the
        replay is refuted and the plain loop decides."""
        shift = np.array([0.0, 0.0, 0.35])
        net = counting(
            lambda v: np.maximum(0.3 - v + shift, 0.0)
            + np.minimum(0.6 - v + shift, 0.0)
        )
        got = bisect_monotone(net, 0.0, 1.0, shift.shape)
        assert net.calls > 30  # the plain loop ran
        assert same_bits(got, reference_bisect(net, 0.0, 1.0, shift.shape))

    def test_population_outputs_match_reference_copies(
        self, tech, geometry, monkeypatch
    ):
        """Cell metrics, hold margin and leakage on a 2,000-cell 2-sigma
        population equal the same calls with the first-written device
        current and bisection patched in."""
        import repro.sram.solver as solver
        from repro.devices.mosfet import MOSFET
        from repro.sram.leakage import cell_leakage
        from repro.sram.metrics import (
            OperatingConditions,
            compute_cell_metrics,
            compute_hold_margin,
        )
        from tests.test_mosfet import two_orientation_current

        cell = scaled_population(tech, geometry, 2_000, 2.0, seed=5)
        nominal = OperatingConditions.nominal(tech)
        asb = OperatingConditions.source_biased_standby(tech, 0.45)

        def outputs():
            metrics = compute_cell_metrics(cell, nominal.with_body_bias(-0.3))
            return {
                **{f"metrics.{k}": v for k, v in vars(metrics).items()},
                "hold_margin": compute_hold_margin(cell, asb),
                **{f"leakage.{k}": v for k, v in vars(cell_leakage(cell)).items()},
            }

        fast = outputs()
        monkeypatch.setattr(MOSFET, "current", two_orientation_current)
        monkeypatch.setattr(solver, "bisect_monotone", reference_bisect)
        reference = outputs()
        assert fast.keys() == reference.keys()
        for key in fast:
            assert same_bits(fast[key], reference[key]), key


#: Mean net-current evaluations per root over compute_cell_metrics plus
#: compute_hold_margin on the 2,000-cell 2-sigma population: 30 for the
#: plain bisection, MEASURED_EVALUATIONS_PER_ROOT with the replayed one.
MEASURED_EVALUATIONS_PER_ROOT = 8.36


class TestWorkPerRoot:
    def test_evaluations_per_root_stay_low(self, tech, geometry, checked_bisect):
        from repro.sram.metrics import (
            OperatingConditions,
            compute_cell_metrics,
            compute_hold_margin,
        )

        cell = scaled_population(tech, geometry, 2_000, 2.0, seed=5)
        compute_cell_metrics(cell, OperatingConditions.nominal(tech))
        compute_hold_margin(
            cell, OperatingConditions.source_biased_standby(tech, 0.45)
        )
        calls = np.array([c for c, _ in checked_bisect])
        mean = float(calls.mean())
        print(f"net evaluations per root: mean {mean:.2f}, max {calls.max()}")
        assert mean <= min(1.25 * MEASURED_EVALUATIONS_PER_ROOT, 15.0)


class TestSolverCounters:
    @pytest.fixture()
    def telemetry(self):
        from repro import observability

        observability.disable()
        observability.reset()
        observability.enable()
        yield observability.registry
        observability.disable()
        observability.reset()

    def test_rail_clamped_write_node_is_counted(self, tech, geometry, telemetry):
        # A dead pull-up: the access transistor holds the written node
        # within the bisection's first cell above ground.
        dvt = {name: np.zeros(2) for name in TRANSISTORS}
        dvt["pl"] = np.array([0.0, 3.0])
        cell = SixTCell(tech, geometry, ProcessCorner(0.0), dvt)
        v_write = solve_write_node(cell, 1.0)
        assert v_write[1] == 0.5 * 2.0**-30
        assert v_write[0] > 1e-3
        assert telemetry.counter_value("solver.clamped") == 1.0

    def test_unconverged_hold_cells_are_counted(
        self, tech, geometry, telemetry, monkeypatch
    ):
        import repro.sram.solver as solver

        cell = scaled_population(tech, geometry, 200, 2.0, seed=5)
        roots = []
        bisect = solver.bisect_monotone
        monkeypatch.setattr(
            solver, "bisect_monotone",
            lambda *args, **kwargs: roots.append(args) or bisect(*args, **kwargs),
        )
        solve_hold_state(cell, 0.3)
        assert len(roots) >= 2 * 3  # two roots a sweep, at least three sweeps
        assert telemetry.counter_value("solver.unconverged") == 0.0

        monkeypatch.setattr(solver, "_HOLD_SWEEPS", 1)
        vl, vr = solve_hold_state(cell, 0.3)
        moving = np.maximum(np.abs(vl - 0.3), np.abs(vr - 0.0)) > solver._HOLD_TOL
        assert 0 < np.count_nonzero(moving)
        assert telemetry.counter_value("solver.unconverged") == np.count_nonzero(
            moving
        )

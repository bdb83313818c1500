"""Vectorised DC solvers for the 6T cell.

Per-sample SPICE is far too slow for the paper's statistics (failure
probabilities down to 1e-5 need >= 1e5 weighted samples per corner).
Fortunately every static cell problem the paper's failure metrics need is
either a *single-node* KCL equation whose net-current function is strictly
decreasing in the node voltage, or the two-node standby retention problem,
solved as a Gauss-Seidel fixed point over two such single-node solves.

Every single-node root is defined as the result of a fixed 30-step
bisection (:func:`_bisect_plain`), and every solve returns exactly those
bits.  :func:`bisect_monotone` obtains them with a handful of net-current
evaluations instead of thirty: a bracketed inverse-quadratic estimate of
the root, a replay of the bisection's midpoints against that estimate, and
two evaluations that prove the replayed decisions (see its docstring).

All functions broadcast over the cell population: with `dvt` arrays of
shape (n,) every solve handles the entire Monte-Carlo population in one
pass of numpy operations.  The solutions are cross-validated against the
general-purpose MNA engine (:mod:`repro.circuit`) in the integration
tests.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.observability.metrics import incr
from repro.sram.cell import SixTCell

#: Bisection iterations; resolves voltages to vdd / 2^30 ~ 1e-9 V.
_BISECT_ITERS = 30
#: Gauss-Seidel sweeps for the two-node hold problem.
_HOLD_SWEEPS = 40
#: Hold fixed-point convergence tolerance [V].
_HOLD_TOL = 1e-7
#: Root-estimate tolerance, in widths of the bisection's final cell.
_ESTIMATE_TOL = 1.0
#: Upper bound on root-estimate steps (Chandrupatla's method converges at
#: least as fast as bisection, so this is never reached in practice).
_ESTIMATE_STEPS = 2 * _BISECT_ITERS
#: First probe from a guess, as a fraction of the bracket [lo, hi].
_PROBE_STEP = 2.0**-6

# Below glibc's default heap trim threshold (128 kB) every batch re-faults its
# temporaries' pages; freeing one untouched 8 MB block raises it to 16 MB.
np.empty(1 << 20)

Net = Callable[[np.ndarray], np.ndarray]


def _bisect_plain(
    net_current: Net, lo: float, hi: float, shape: tuple[int, ...], iters: int
) -> tuple[np.ndarray, np.ndarray]:
    """The defining bisection: the final bracket after ``iters`` steps."""
    lo_v = np.full(shape, float(lo))
    hi_v = np.full(shape, float(hi))
    for _ in range(iters):
        mid = 0.5 * (lo_v + hi_v)
        positive = net_current(mid) > 0.0
        lo_v = np.where(positive, mid, lo_v)
        hi_v = np.where(positive, hi_v, mid)
    return lo_v, hi_v


def _replay(
    root: np.ndarray, lo: float, hi: float, iters: int
) -> tuple[np.ndarray, np.ndarray]:
    """The bisection's final bracket with ``mid < root`` deciding each step.

    The midpoints are computed exactly as :func:`_bisect_plain` computes
    them.  Each step writes its midpoint over the element's upper end, or
    over its lower end where the midpoint lies below the root (one scatter
    instead of two selects).
    """
    r = root.reshape(-1)
    bounds = np.empty((r.size, 2))
    bounds[:, 0] = lo
    bounds[:, 1] = hi
    flat = bounds.reshape(-1)
    upper = np.arange(1, 2 * r.size, 2)
    mid = np.empty(r.size)
    for _ in range(iters):
        np.add(bounds[:, 0], bounds[:, 1], out=mid)
        mid *= 0.5
        flat[upper - (mid < r)] = mid
    return bounds[:, 0].reshape(root.shape), bounds[:, 1].reshape(root.shape)


def _start_points(
    net_current: Net,
    lo: float,
    hi: float,
    shape: tuple[int, ...],
    guess: np.ndarray | None,
) -> tuple[np.ndarray, ...]:
    """Two bracket ends and a third point ``(x1, f1, x2, f2, x3, f3)``.

    Without a guess the ends are ``hi`` and ``lo``.  With one, the guess
    and a probe a small step towards the root (as its sign says) bracket
    most roots; where they do not, the rail beyond the probe is the other
    end and the guess is kept as the third point.  Elements whose ends
    share a sign have no root in ``[lo, hi]``.
    """
    if guess is None:
        x2 = np.full(shape, lo)
        f2 = net_current(x2)
        x1 = np.full(shape, hi)
        f1 = net_current(x1)
        return x1, f1, x2, f2, x2, f2
    g = np.clip(np.broadcast_to(np.asarray(guess, dtype=float), shape), lo, hi)
    fg = net_current(g)
    rising = fg > 0.0
    step = _PROBE_STEP * (hi - lo)
    probe = np.where(rising, np.minimum(g + step, hi), np.maximum(g - step, lo))
    fp = net_current(probe)
    split = (fp > 0.0) != rising
    if split.all():
        return probe, fp, g, fg, g, fg
    rail = np.where(split, probe, np.where(rising, hi, lo))
    fr = net_current(rail)
    return (
        rail, fr,
        np.where(split, g, probe), np.where(split, fg, fp),
        g, fg,
    )


def _estimate_root(
    net_current: Net,
    lo: float,
    hi: float,
    shape: tuple[int, ...],
    tol: float,
    guess: np.ndarray | None,
) -> np.ndarray:
    """A root estimate per element, typically within ``tol`` [V].

    Chandrupatla's method (1997) on the sign classes of the bisection
    (``f > 0`` against ``f <= 0``): inverse quadratic interpolation where
    the three latest points justify it, bisection of the bracket
    otherwise.  The estimate returned is the interpolation's next point,
    which is never evaluated.  Elements with no sign change get -inf or
    +inf, so that the replay walks to the end the bisection walks to.
    Nothing here needs to be exact: :func:`bisect_monotone` proves or
    refutes the estimate.
    """
    x1, f1, x2, f2, x3, f3 = _start_points(net_current, lo, hi, shape, guess)
    positive = f1 > 0.0
    active = positive != (f2 > 0.0)
    root = np.where(positive, np.inf, -np.inf)
    t = np.full(shape, 0.5)
    if guess is not None:
        with np.errstate(all="ignore"):
            t_rf = f1 / (f1 - f2)
        t = np.where(np.isfinite(t_rf), np.clip(t_rf, 0.01, 0.99), 0.5)
    for _ in range(_ESTIMATE_STEPS):
        if not active.any():
            break
        xt = np.where(active, x1 + t * (x2 - x1), x1)
        ft = net_current(xt)
        same = (ft > 0.0) == (f1 > 0.0)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = xt, ft
        with np.errstate(all="ignore"):
            span = x2 - x1
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            t_iqi = (
                f1 / (f2 - f1) * f3 / (f2 - f3)
                + (x3 - x1) / span * f1 / (f3 - f1) * f2 / (f3 - f2)
            )
            tlim = tol / np.abs(span)
        valid = np.isfinite(t_iqi) & (t_iqi >= 0.0) & (t_iqi <= 1.0)
        step = t_iqi * span
        nearer = np.where(np.abs(f1) < np.abs(f2), x1, x2)
        root = np.where(active, np.where(valid, x1 + step, nearer), root)
        active &= (np.abs(span) > 2.0 * tol) & ~(valid & (np.abs(step) <= tol))
        quadratic = valid & (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
        t = np.clip(
            np.where(quadratic, t_iqi, 0.5),
            np.minimum(tlim, 0.5),
            np.maximum(1.0 - tlim, 0.5),
        )
    return root


def bisect_monotone(
    net_current: Net,
    lo: float,
    hi: float,
    shape: tuple[int, ...],
    iters: int = _BISECT_ITERS,
    *,
    guess: np.ndarray | None = None,
) -> np.ndarray:
    """Solve ``net_current(v) = 0`` for a strictly decreasing function.

    ``net_current`` must be vectorised and (elementwise) decreasing in
    ``v``; the root is bracketed by ``[lo, hi]``.  If the function has no
    sign change in the bracket the result clamps to the corresponding
    endpoint, which is the physically right answer for rail-clamped
    nodes.

    The result is, bit for bit, the midpoint of the bracket left by
    ``iters`` steps of plain bisection (``mid = 0.5 * (lo + hi)``, keep
    the upper half where ``net_current(mid) > 0``; :func:`_bisect_plain`),
    computed with far fewer evaluations of ``net_current``:

    1. *Estimate*: a bracketed inverse-quadratic iteration locates each
       root to about the width of the bisection's final cell
       (:func:`_estimate_root`).  ``guess`` (shape ``shape``), when
       given, seeds it near the expected root instead of at the ends.
    2. *Replay*: the bisection's ``iters`` midpoints are recomputed with
       ``mid < estimate`` deciding each step.  They are the same
       floating-point numbers the plain loop would compute along the
       same path, and no evaluation is made.
    3. *Verify*: the replayed bracket ``[lo_n, hi_n]`` is checked with
       one evaluation per side: ``net_current(lo_n) > 0`` wherever
       ``lo_n`` moved off ``lo``, and ``net_current(hi_n) <= 0`` wherever
       ``hi_n`` moved off ``hi``.  Every midpoint the replay put on the
       positive side lies at or below ``lo_n``, and every other one at or
       above ``hi_n``, so for a decreasing function these two checks
       prove all ``iters`` decisions: the replayed bracket is the plain
       loop's.
    4. *Fallback*: elements whose check fails take the plain loop.  No
       cell net has needed it; a net that is not decreasing can.

    Roots whose final bracket still touches ``lo`` or ``hi`` are counted
    as ``solver.clamped``.
    """
    lo = float(lo)
    hi = float(hi)
    root = _estimate_root(
        net_current, lo, hi, shape, _ESTIMATE_TOL * (hi - lo) * 0.5**iters,
        guess,
    )
    lo_v, hi_v = _replay(root, lo, hi, iters)
    refuted = np.zeros(shape, dtype=bool)
    moved = lo_v != lo
    if moved.any():
        refuted |= moved & ~(net_current(lo_v) > 0.0)
    moved = hi_v != hi
    if moved.any():
        refuted |= moved & (net_current(hi_v) > 0.0)
    if refuted.any():
        plain_lo, plain_hi = _bisect_plain(net_current, lo, hi, shape, iters)
        lo_v = np.where(refuted, plain_lo, lo_v)
        hi_v = np.where(refuted, plain_hi, hi_v)
    clamped = np.count_nonzero((lo_v == lo) | (hi_v == hi))
    if clamped:
        incr("solver.clamped", clamped)
    return 0.5 * (lo_v + hi_v)


def solve_read_node(
    cell: SixTCell, vdd: float, vbody_n: float = 0.0
) -> np.ndarray:
    """V_READ [V]: the '0'-node voltage during a read access.

    Wordline and both bitlines at VDD; the node storing '0' (R) rises to
    the divider voltage of the access transistor (pulling up from the
    precharged bitline) against the pull-down NR (gate at the '1' node,
    assumed to stay at VDD).  This is the paper's V_READ.
    """
    axr = cell.device("axr")
    nr = cell.device("nr")
    shape = np.broadcast_shapes(
        np.shape(axr.dvt) or (1,), np.shape(nr.dvt) or (1,)
    )

    def net(v: np.ndarray) -> np.ndarray:
        i_up = axr.current(vg=vdd, vd=vdd, vs=v, vb=vbody_n)
        i_down = nr.current(vg=vdd, vd=v, vs=0.0, vb=vbody_n)
        return i_up - i_down

    return bisect_monotone(net, 0.0, vdd, shape)


def solve_inverter_trip(
    pull_up,
    pull_down,
    vdd: float,
    vss: float = 0.0,
    vbody_n: float = 0.0,
) -> np.ndarray:
    """Switching threshold VM [V] of a CMOS inverter (vout == vin point).

    ``pull_up`` is a PMOS with source/body at ``vdd``; ``pull_down`` an
    NMOS with source at ``vss`` and body at ``vbody_n``.  VM is where the
    pull-up and pull-down currents balance with input tied to output —
    the standard static trip-point used by the paper's read/write/hold
    failure criteria.
    """
    shape = np.broadcast_shapes(
        np.shape(pull_up.dvt) or (1,), np.shape(pull_down.dvt) or (1,)
    )

    def net(v: np.ndarray) -> np.ndarray:
        i_up = pull_up.current(vg=v, vd=v, vs=vdd, vb=vdd)
        i_down = pull_down.current(vg=v, vd=v, vs=vss, vb=vbody_n)
        return i_up - i_down

    return bisect_monotone(net, vss, vdd, shape)


def solve_read_trip(
    cell: SixTCell, vdd: float, vbody_n: float = 0.0
) -> np.ndarray:
    """V_TRIPRD [V]: trip point of the PL-NL inverter during read.

    The read disturbs node R upward; the cell flips if V_READ exceeds the
    switching threshold of the inverter whose input is node R (PL/NL).
    """
    return solve_inverter_trip(
        cell.device("pl"), cell.device("nl"), vdd, vss=0.0, vbody_n=vbody_n
    )


def solve_write_node(
    cell: SixTCell, vdd: float, vbody_n: float = 0.0
) -> np.ndarray:
    """V_WR [V]: the '1'-node voltage while writing a '0' into it.

    BL is driven to 0 with the wordline high; the access transistor AXL
    fights the pull-up PL (whose gate, node R, is near 0).  A write
    succeeds only if this divider voltage falls below the trip point of
    the other inverter (PR/NR).
    """
    pl = cell.device("pl")
    axl = cell.device("axl")
    shape = np.broadcast_shapes(
        np.shape(pl.dvt) or (1,), np.shape(axl.dvt) or (1,)
    )

    def net(v: np.ndarray) -> np.ndarray:
        i_up = pl.current(vg=0.0, vd=v, vs=vdd, vb=vdd)
        i_down = axl.current(vg=vdd, vd=v, vs=0.0, vb=vbody_n)
        return i_up - i_down

    return bisect_monotone(net, 0.0, vdd, shape)


def solve_write_time(
    cell: SixTCell,
    vdd: float,
    vbody_n: float = 0.0,
    node_capacitance: float = 2e-15,
    n_points: int = 9,
    v_trip: np.ndarray | None = None,
) -> np.ndarray:
    """Write time [s]: discharging the '1' node below the flip threshold.

    During a write-0, the access transistor AXL (bitline at 0) must pull
    node L from VDD down past the PR-NR trip point against the pull-up
    PL before the wordline pulse ends.  The time is the charge integral

        T = C_node * integral_{VM}^{VDD} dV / (I_AXL(V) - I_PL(V))

    evaluated with composite Simpson quadrature, vectorised over the
    population.  This is the mechanism through which reverse body bias
    (which weakens AXL) and the high-Vt corner *increase* write
    failures, matching the paper's Fig. 2.  Where the pull-up ever beats
    the access transistor (a static write failure) the time is infinite.
    ``v_trip`` is :func:`solve_write_trip` at the same bias when the
    caller has already solved it.
    """
    if n_points < 3 or n_points % 2 == 0:
        raise ValueError("n_points must be an odd integer >= 3")
    pl = cell.device("pl")
    axl = cell.device("axl")
    v_stop = solve_write_trip(cell, vdd, vbody_n) if v_trip is None else v_trip
    span = vdd - v_stop

    # Composite Simpson weights on [0, 1].
    s = np.linspace(0.0, 1.0, n_points)
    w = np.ones(n_points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= 1.0 / (3.0 * (n_points - 1))

    inv_sum = np.zeros(np.shape(v_stop))
    static_fail = np.zeros(np.shape(v_stop), dtype=bool)
    for sk, wk in zip(s, w):
        v = v_stop + sk * span
        i_down = axl.current(vg=vdd, vd=v, vs=0.0, vb=vbody_n)
        i_up = np.abs(pl.current(vg=0.0, vd=v, vs=vdd, vb=vdd))
        net = i_down - i_up
        static_fail |= net <= 0.0
        inv_sum = inv_sum + wk / np.maximum(net, 1e-30)
    t_write = node_capacitance * span * inv_sum
    return np.where(static_fail, np.inf, t_write)


def solve_write_trip(
    cell: SixTCell, vdd: float, vbody_n: float = 0.0
) -> np.ndarray:
    """V_TRIPWR [V]: trip point of the PR-NR inverter (write criterion)."""
    return solve_inverter_trip(
        cell.device("pr"), cell.device("nr"), vdd, vss=0.0, vbody_n=vbody_n
    )


def solve_access_current(
    cell: SixTCell,
    vdd: float,
    vbody_n: float = 0.0,
    v_read: np.ndarray | None = None,
) -> np.ndarray:
    """Bitline discharge current [A] while reading the '0' node.

    Evaluated at the self-consistent read voltage: the current through
    the access transistor equals the pull-down current at V_READ.  The
    access time is ``C_BL * dV_BL / I_access``, so an access failure is a
    *minimum-current* criterion.  ``v_read`` is :func:`solve_read_node`
    at the same bias when the caller has already solved it.
    """
    if v_read is None:
        v_read = solve_read_node(cell, vdd, vbody_n)
    axr = cell.device("axr")
    return np.asarray(
        axr.current(vg=vdd, vd=vdd, vs=v_read, vb=vbody_n), dtype=float
    )


def solve_hold_state(
    cell: SixTCell,
    vdd_standby: float,
    vsb: float = 0.0,
    vbody_n: float = 0.0,
    bitline: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Standby node voltages (VL, VR) of a cell storing '1' at L.

    Wordline low, bitlines precharged (``bitline`` defaults to the
    standby supply), cell source line raised to ``vsb``.  The solution is
    a Gauss-Seidel fixed point: each node's KCL is strictly decreasing in
    its own voltage, so each half-step is a vectorised bisection.
    Initialising at the held state (VL = vdd, VR = vsb) makes the
    iteration converge to the *retained* solution when it exists; when
    retention is lost the fixed point collapses toward the flipped /
    degenerate solution, which the hold-margin criterion then flags.
    """
    bl = vdd_standby if bitline is None else bitline
    devices = {
        name: cell.device(name)
        for name in ("pl", "pr", "nl", "nr", "axl", "axr")
    }
    shape = np.broadcast_shapes(
        *(np.shape(d.dvt) or (1,) for d in devices.values())
    )
    n = int(np.prod(shape)) if shape else 1
    # Flatten per-device threshold shifts so the active-set logic below
    # can index them; scalar dvt broadcasts to the population.
    dvt_flat = {
        name: np.broadcast_to(np.asarray(d.dvt, dtype=float), shape).reshape(n)
        for name, d in devices.items()
    }

    def subset_devices(index: np.ndarray) -> dict:
        return {
            name: devices[name].with_dvt(dvt_flat[name][index])
            for name in devices
        }

    def net_l(dev: dict, v: np.ndarray, vr_now: np.ndarray) -> np.ndarray:
        i_pu = dev["pl"].current(vg=vr_now, vd=v, vs=vdd_standby, vb=vdd_standby)
        i_ax = dev["axl"].current(vg=0.0, vd=bl, vs=v, vb=vbody_n)
        i_pd = dev["nl"].current(vg=vr_now, vd=v, vs=vsb, vb=vbody_n)
        return i_pu + i_ax - i_pd

    def net_r(dev: dict, v: np.ndarray, vl_now: np.ndarray) -> np.ndarray:
        i_pu = dev["pr"].current(vg=vl_now, vd=v, vs=vdd_standby, vb=vdd_standby)
        i_ax = dev["axr"].current(vg=0.0, vd=bl, vs=v, vb=vbody_n)
        i_pd = dev["nr"].current(vg=vl_now, vd=v, vs=vsb, vb=vbody_n)
        return i_pu + i_ax - i_pd

    lo = min(0.0, vsb)
    hi = max(vdd_standby, bl)
    vl = np.full(n, float(vdd_standby))
    vr = np.full(n, float(vsb))

    # Gauss-Seidel with an active set: cells whose voltages stop moving
    # drop out of the sweep, so a handful of near-critical stragglers
    # does not force full-population iterations.
    active = np.arange(n)
    dev_active = subset_devices(active)
    for _ in range(_HOLD_SWEEPS):
        vl_a = vl[active]
        vr_a = vr[active]
        # Each half-step's root estimate starts from the node's voltage
        # after the previous sweep; the result is the bisection's either way.
        vl_new = bisect_monotone(
            lambda v: net_l(dev_active, v, vr_a), lo, hi, active.shape,
            guess=vl_a,
        )
        vr_new = bisect_monotone(
            lambda v: net_r(dev_active, v, vl_new), lo, hi, active.shape,
            guess=vr_a,
        )
        moved = np.maximum(np.abs(vl_new - vl_a), np.abs(vr_new - vr_a))
        vl[active] = vl_new
        vr[active] = vr_new
        still = moved > _HOLD_TOL
        if not np.any(still):
            break
        if np.count_nonzero(still) < active.size:
            active = active[still]
            dev_active = subset_devices(active)
    else:
        incr("solver.unconverged", np.count_nonzero(still))
    return vl.reshape(shape), vr.reshape(shape)


def solve_hold_trip(
    cell: SixTCell,
    vdd_standby: float,
    vsb: float = 0.0,
    vbody_n: float = 0.0,
) -> np.ndarray:
    """Trip point [V] of the PR-NR inverter under standby rails.

    The cell loses its '1' at node L when VL droops below this threshold
    (the PR/NR inverter then flips node R high and the feedback completes
    the data loss).  Under source bias the pull-down source sits at VSB,
    which raises the trip point — one of the two mechanisms by which
    source biasing erodes hold margin.
    """
    return solve_inverter_trip(
        cell.device("pr"), cell.device("nr"), vdd_standby, vss=vsb,
        vbody_n=vbody_n,
    )

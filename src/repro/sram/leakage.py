"""Leakage decomposition of the 6T cell under body and source bias.

The cell stores '0' at node R (paper Fig. 1): VL = VDD, VR = VSB.  Three
component groups make up the total (paper Section III.F / Fig. 5a):

* **subthreshold** — the off transistors NL (drain at VDD), PR (drain at
  VR) and AXR (bitline into the '0' node).  Reverse body bias suppresses
  the NMOS terms; source bias suppresses them through the raised source
  (body effect), the reduced drain-source voltage (DIBL) and — for the
  access path — a genuinely negative VGS.
* **gate tunnelling** — dominated by the two ON transistors with a full
  oxide drop (NR and PL); essentially insensitive to body bias.
* **junction** — reverse-biased drain junctions (BTBT grows
  exponentially with reverse bias, hence with RBB) and the body diodes
  that conduct under strong forward body bias (the FBB bound).

All functions broadcast over a vectorised cell population.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.devices.leakage import gate_leakage, junction_leakage
from repro.sram.cell import SixTCell, sample_cell_dvt

ArrayF = np.ndarray


@dataclass(frozen=True)
class LeakageBreakdown:
    """Per-component cell leakage [A], arrays over the population."""

    subthreshold: ArrayF
    gate: ArrayF
    junction: ArrayF

    @property
    def total(self) -> ArrayF:
        """Total cell leakage [A]."""
        return self.subthreshold + self.gate + self.junction

    def scaled(self, factor: float) -> "LeakageBreakdown":
        """All components multiplied by ``factor`` (e.g. cells per array)."""
        return LeakageBreakdown(
            self.subthreshold * factor, self.gate * factor, self.junction * factor
        )


def cell_leakage(
    cell: SixTCell,
    vdd: float | None = None,
    vbody_n: float = 0.0,
    vsb: float = 0.0,
) -> LeakageBreakdown:
    """Leakage components [A] of ``cell`` storing '0' at node R.

    Args:
        cell: cell population (its ``dvt`` arrays set the output shape).
        vdd: supply rail [V]; defaults to the technology's nominal VDD.
        vbody_n: NMOS body terminal voltage [V] (ABB knob).
        vsb: source-line voltage [V] (ASB knob); the '0' node sits at
            VSB in standby.
    """
    tech = cell.tech
    if vdd is None:
        vdd = tech.vdd
    geometry = cell.geometry
    length = geometry.length if geometry.length is not None else tech.length
    ut = cell.device("nl").ut

    nl = cell.device("nl")
    pr = cell.device("pr")
    axr = cell.device("axr")

    # --- subthreshold: off-device channel currents ---------------------
    i_nl = nl.current(vg=vsb, vd=vdd, vs=vsb, vb=vbody_n)
    i_pr = np.abs(pr.current(vg=vdd, vd=vsb, vs=vdd, vb=vdd))
    i_axr = axr.current(vg=0.0, vd=vdd, vs=vsb, vb=vbody_n)
    subthreshold = np.atleast_1d(i_nl + i_pr + np.maximum(i_axr, 0.0))

    # --- gate tunnelling: ON devices with a full oxide drop -------------
    vox = vdd - vsb
    i_gate = gate_leakage(
        tech.nmos, geometry.w_pull_down, length, vox
    ) + gate_leakage(tech.pmos, geometry.w_pull_up, length, vox)
    gate = np.broadcast_to(
        np.atleast_1d(i_gate), subthreshold.shape
    ).astype(float)

    # --- junction: node-side drain junctions + body diodes --------------
    area_pd = tech.junction_area(geometry.w_pull_down)
    area_ax = tech.junction_area(geometry.w_access)
    area_pu = tech.junction_area(geometry.w_pull_up)
    # Node L (at VDD): NL drain and AXL junction, reverse = vdd - vbody.
    j_high = junction_leakage(tech.nmos, area_pd + area_ax, vdd - vbody_n, ut)
    # Node R (at VSB): NR drain and AXR junction; goes *forward* under FBB.
    j_low = junction_leakage(tech.nmos, area_pd + area_ax, vsb - vbody_n, ut)
    # PR drain (at VSB) against the n-well at VDD.
    j_pmos = junction_leakage(tech.pmos, area_pu, vdd - vsb, ut)
    junction = np.broadcast_to(
        np.atleast_1d(np.abs(j_high) + np.abs(j_low) + np.abs(j_pmos)),
        subthreshold.shape,
    ).astype(float)

    return LeakageBreakdown(
        subthreshold=subthreshold, gate=gate, junction=junction
    )


def sample_array_leakage(
    cell_template: SixTCell,
    cells_per_array: int,
    n_arrays: int,
    rng: np.random.Generator,
    vdd: float | None = None,
    vbody_n: float = 0.0,
    vsb: float = 0.0,
    chunk_cells: int = 500_000,
) -> np.ndarray:
    """Total leakage [A] of ``n_arrays`` independent arrays.

    Each array is the exact sum of ``cells_per_array`` independently
    sampled cell leakages — this is what demonstrates the paper's Fig. 3
    central-limit behaviour (cell distributions overlap across corners,
    array distributions separate).  Sampling is chunked to bound memory.
    """
    if cells_per_array <= 0 or n_arrays <= 0:
        raise ValueError("cells_per_array and n_arrays must be positive")
    arrays_per_chunk = max(1, chunk_cells // cells_per_array)
    totals = np.empty(n_arrays)
    done = 0
    while done < n_arrays:
        count = min(arrays_per_chunk, n_arrays - done)
        dvt = sample_cell_dvt(
            cell_template.tech,
            cell_template.geometry,
            rng,
            size=count * cells_per_array,
        )
        population = cell_template.with_dvt(dvt)
        per_cell = cell_leakage(population, vdd=vdd, vbody_n=vbody_n, vsb=vsb).total
        totals[done : done + count] = per_cell.reshape(
            count, cells_per_array
        ).sum(axis=1)
        done += count
    return totals

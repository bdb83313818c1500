#!/usr/bin/env python3
"""Design-space exploration: what the paper's Section II motivates.

Pre-silicon knobs (cell sizing, redundancy) only go so far against
inter-die variation — this example quantifies that, then shows the
post-silicon knob (self-repair) recovering the yield that sizing
cannot.

Sweeps:
1. cell ratio (pull-down width) vs read/write trade-off;
2. column redundancy vs parametric yield at fixed sigma;
3. self-repair on top of the best static design.

Run:  python examples/yield_explorer.py   (~2-3 minutes)
"""

from repro import (
    CellFailureAnalyzer,
    CellGeometry,
    ProcessCorner,
    SelfRepairingSRAM,
    calibrate_criteria,
    predictive_70nm,
)
from repro.failures import parametric_yield
from repro.sram.array import ArrayOrganization
from repro.sram.metrics import OperatingConditions
from repro.technology.variation import InterDieDistribution


def main() -> None:
    tech = predictive_70nm()
    conditions = OperatingConditions.nominal(tech)

    # --- 1. cell sizing: the static read/write trade-off --------------
    print("cell sizing trade-off (nominal corner, P_fail per mechanism):")
    print("  w_pd[nm]   P_read     P_write    P_access")
    for w_pd in (160e-9, 200e-9, 260e-9):
        geometry = CellGeometry(w_pull_down=w_pd)
        criteria = calibrate_criteria(
            tech, CellGeometry(), conditions, target=1e-4,
            n_samples=12_000, seed=3,
        )
        analyzer = CellFailureAnalyzer(
            tech, criteria, geometry, conditions, n_samples=8_000, seed=4
        )
        probs = analyzer.failure_probabilities(ProcessCorner(0.0))
        print(f"  {w_pd * 1e9:7.0f}  {probs['read'].estimate:9.2e}"
              f"  {probs['write'].estimate:9.2e}"
              f"  {probs['access'].estimate:9.2e}")
    print("  (upsizing the pull-down buys read stability, costs area; the"
          " calibrated design splits the budget evenly)")

    # --- 2. redundancy vs yield ---------------------------------------
    geometry = CellGeometry()
    criteria = calibrate_criteria(
        tech, geometry, conditions, target=1e-4, n_samples=12_000, seed=3
    )
    analyzer = CellFailureAnalyzer(
        tech, criteria, geometry, conditions, n_samples=8_000, seed=4
    )
    sigma = 0.05
    dist = InterDieDistribution(sigma)
    print(f"\nredundancy vs parametric yield "
          f"(8KB, sigma(Vt_inter) = {sigma * 1e3:.0f} mV):")
    pipelines = {}
    for redundancy in (0.02, 0.05, 0.10):
        organization = ArrayOrganization.from_capacity(
            8 * 1024, rows=64, redundancy_fraction=redundancy
        )
        pipeline = SelfRepairingSRAM(
            analyzer, organization, leakage_samples=4_000, table_grid=7
        )
        pipelines[redundancy] = pipeline
        yield_zbb = pipeline.parametric_yield(dist, repaired=False)
        print(f"  {redundancy * 100:4.0f}% spare columns -> "
              f"yield {100 * yield_zbb:5.1f}%")

    # --- 3. post-silicon repair on top ---------------------------------
    print("\nadding post-silicon self-repair (adaptive body bias):")
    for redundancy, pipeline in pipelines.items():
        yield_zbb = pipeline.parametric_yield(dist, repaired=False)
        yield_rep = pipeline.parametric_yield(dist, repaired=True)
        print(f"  {redundancy * 100:4.0f}% redundancy: "
              f"{100 * yield_zbb:5.1f}% -> {100 * yield_rep:5.1f}% "
              f"(+{100 * (yield_rep - yield_zbb):.1f} points)")

    # --- and what a single stuck policy would do -----------------------
    pipeline = pipelines[0.05]
    print("\nwhy *adaptive* (per-die) beats any fixed body bias:")
    for vbody, label in ((-0.4, "always-RBB"), (0.0, "always-ZBB"),
                         (0.4, "always-FBB")):
        def p_cell(corner, vb=vbody):
            return pipeline.cell_failure_probability(corner, vb)

        fixed_yield = parametric_yield(p_cell, pipeline.organization, dist)
        print(f"  {label:10s}: yield {100 * fixed_yield:5.1f}%")
    adaptive = pipeline.parametric_yield(dist, repaired=True)
    print(f"  adaptive  : yield {100 * adaptive:5.1f}%")


if __name__ == "__main__":
    main()

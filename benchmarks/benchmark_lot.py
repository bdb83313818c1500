"""Capstone bench: a production lot through the complete flow.

Not a paper figure — the integration of everything the paper proposes:
each die is monitored, body-bias repaired, parametrically tested, and
ASB-calibrated; the lot report shows the yield, the repair rate, and
the standby power of the shipped population.
"""

import numpy as np

from repro.core.body_bias import BodyBiasGenerator, SelfRepairingSRAM
from repro.core.lot import LotSimulator
from repro.experiments.asb import default_asb_organization, hold_table


def test_lot_flow(ctx, save_result):
    organization = default_asb_organization()
    pipeline = SelfRepairingSRAM(
        ctx.analyzer(),
        organization,
        generator=BodyBiasGenerator(),
        table_provider=ctx.table,
        seed=ctx.seed + 9,
    )
    simulator = LotSimulator(pipeline, hold_table(ctx))

    report = simulator.run(n_dies=300, sigma_inter=0.05, seed=17)
    rows = report.rows()
    # Per-bin shipped power for the report.
    for bin_name in ("low_vt", "nominal", "high_vt"):
        shipped = [d for d in report.dies
                   if d.shipped and d.bin.value == bin_name]
        if shipped:
            power = np.mean([d.standby_power for d in shipped])
            rows.append(
                f"  {bin_name:8s}: {len(shipped)} shipped, "
                f"mean standby {power * 1e6:.1f} uW"
            )
    save_result("lot_flow", rows)

    # The flow ships a solid majority of a sigma=50mV lot...
    assert report.yield_fraction > 0.5
    # ...a visible slice of it only thanks to the body-bias repair...
    assert report.repaired_fraction > 0.05
    # ...every shipped die meets the parametric limit and got a real
    # source bias.
    for die in report.dies:
        if die.shipped:
            assert die.p_memory <= simulator.p_memory_limit
            assert die.vsb > 0.3

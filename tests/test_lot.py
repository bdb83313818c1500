"""Tests for the production-lot flow simulator."""

import numpy as np
import pytest

from repro.core.body_bias import SelfRepairingSRAM
from repro.core.lot import LotSimulator
from repro.core.monitor import CornerBin
from repro.core.source_bias import SourceBiasDAC
from repro.experiments.asb import HoldProbabilityTable
from repro.sram.array import ArrayOrganization
from repro.technology.corners import ProcessCorner


@pytest.fixture(scope="module")
def simulator():
    from repro.experiments.context import ExperimentContext

    ctx = ExperimentContext(
        target=1e-4, calibration_samples=8_000, analysis_samples=4_000,
        table_grid=7, seed=99,
    )
    organization = ArrayOrganization.from_capacity(
        2 * 1024, rows=64, redundancy_fraction=0.05
    )
    pipeline = SelfRepairingSRAM(
        ctx.analyzer(), organization, table_provider=ctx.table,
        leakage_samples=4_000,
    )
    hold_table = HoldProbabilityTable(
        ctx,
        corner_grid=np.linspace(-0.1, 0.1, 5),
        vsb_grid=np.array([0.0, 0.3, 0.45, 0.55, 0.6, 0.635]),
    )
    return LotSimulator(pipeline, hold_table, dac=SourceBiasDAC(bits=5,
                                                                full_scale=0.62))


def test_lot_report_statistics(simulator):
    report = simulator.run(n_dies=60, sigma_inter=0.04, seed=3)
    assert report.n_dies == 60
    assert 0.2 < report.yield_fraction <= 1.0
    power = report.shipped_power()
    assert power.size == sum(d.shipped for d in report.dies)
    assert np.all(power > 0)
    rows = report.rows()
    assert any("yield" in row for row in rows)
    assert any("corner bins" in row for row in rows)
    # The lot is itself a Monte-Carlo experiment over dies: the
    # headline yield carries its binomial CI, in the report too.
    ci = report.yield_result()
    assert ci.n_samples == 60
    assert ci.ci_low <= report.yield_fraction <= ci.ci_high
    assert any("95% CI" in row for row in rows)


def test_extreme_dies_are_repaired_or_scrapped(simulator):
    rng = np.random.default_rng(5)
    leaky = simulator.process_die(ProcessCorner(-0.09), rng)
    assert leaky.bin is CornerBin.LOW_VT
    assert leaky.vbody < 0
    nominal = simulator.process_die(ProcessCorner(0.0), rng)
    assert nominal.shipped
    assert nominal.vsb > 0.3
    hopeless = simulator.process_die(ProcessCorner(0.2), rng)
    assert not hopeless.shipped
    assert hopeless.vsb == 0.0


def test_lot_counts_its_dies_without_task_failures(simulator):
    from repro import observability

    observability.reset()
    observability.enable()
    try:
        simulator.run(n_dies=10, sigma_inter=0.04, seed=3)
        counters = observability.snapshot()["metrics"]["counters"]
    finally:
        observability.disable()
        observability.reset()
    assert counters["lot.dies"] == 10
    assert counters.get("executor.task_failures", 0) == 0


def test_shipped_dies_meet_the_memory_limit(simulator):
    report = simulator.run(n_dies=40, sigma_inter=0.05, seed=7)
    for die in report.dies:
        if die.shipped:
            assert die.p_memory <= simulator.p_memory_limit


def test_run_identical_across_workers(simulator):
    """The determinism contract: fan-out must not change a single die."""
    import dataclasses

    from repro.parallel import ParallelExecutor

    serial = simulator.run(n_dies=10, sigma_inter=0.04, seed=21)
    parallel = simulator.run(
        n_dies=10, sigma_inter=0.04, seed=21, executor=ParallelExecutor(2)
    )
    assert [dataclasses.asdict(d) for d in serial.dies] == [
        dataclasses.asdict(d) for d in parallel.dies
    ]


def test_checkpointed_run_matches_plain(simulator, tmp_path):
    """A checkpointed lot run is bit-identical to an unchaperoned one."""
    import dataclasses

    from repro.checkpoint import CheckpointStore

    plain = simulator.run(n_dies=10, sigma_inter=0.04, seed=21)
    store = CheckpointStore(tmp_path, every=3)
    checked = simulator.run(
        n_dies=10, sigma_inter=0.04, seed=21, checkpoint=store
    )
    assert [dataclasses.asdict(d) for d in plain.dies] == [
        dataclasses.asdict(d) for d in checked.dies
    ]
    # Completed cleanly: no checkpoint left behind.
    assert not list(tmp_path.glob("*.ckpt.json"))


def test_killed_run_resumes_exactly(simulator, tmp_path):
    """Resume semantics: a partial checkpoint skips the finished dies
    and the completed report is bit-identical to an uninterrupted run.
    """
    import dataclasses

    from repro.checkpoint import CheckpointStore
    from repro.core import lot as lot_module

    reference = simulator.run(n_dies=9, sigma_inter=0.04, seed=33)

    # "Kill" a run after the first flush by making die 5 explode.
    store = CheckpointStore(tmp_path, every=3)
    original = lot_module._die_task
    calls = {"n": 0}

    def dying_task(task):
        calls["n"] += 1
        if calls["n"] == 6:
            raise KeyboardInterrupt("simulated kill")
        return original(task)

    lot_module._die_task = dying_task
    try:
        with pytest.raises(KeyboardInterrupt):
            simulator.run(
                n_dies=9, sigma_inter=0.04, seed=33, checkpoint=store
            )
    finally:
        lot_module._die_task = original

    ckpt = store.load("lot", simulator._lot_fingerprint(9, 0.04, 33))
    assert 0 < len(ckpt) < 9  # partial progress survived the kill

    resumed = simulator.run(
        n_dies=9, sigma_inter=0.04, seed=33, checkpoint=store
    )
    assert [dataclasses.asdict(d) for d in resumed.dies] == [
        dataclasses.asdict(d) for d in reference.dies
    ]
    assert not list(tmp_path.glob("*.ckpt.json"))


def test_wide_process_yields_less(simulator):
    narrow = simulator.run(n_dies=80, sigma_inter=0.02, seed=11)
    wide = simulator.run(n_dies=80, sigma_inter=0.08, seed=11)
    assert wide.yield_fraction < narrow.yield_fraction


def test_validation(simulator):
    with pytest.raises(ValueError):
        simulator.run(n_dies=0, sigma_inter=0.05)
    from repro.core.lot import LotSimulator as LS

    with pytest.raises(ValueError):
        LS(simulator.pipeline, simulator.hold_table, p_memory_limit=2.0)


def test_empty_report_edges():
    from repro.core.lot import LotReport

    report = LotReport()
    assert report.yield_fraction == 0.0
    assert report.repaired_fraction == 0.0
    assert report.shipped_power().size == 0

"""Seconds-long, tiny-size runs of every workload, untraced and traced."""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

import report
import service_mix
import workloads

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

#: Layers cell_kernel must not touch (it feeds the solver directly).
BYPASSED = ("stats.", "failures.", "core.", "experiments.", "parallel.",
            "checkpoint.", "durable.", "service.")

TINY = {
    "cell_kernel": {"cells": 512, "reads_per_lap": 2},
    "yield_flow": {
        "calibration_samples": 500, "analysis_samples": 64,
        "hold_corners": (0.0,), "hold_vsb": (0.0, 0.5),
        "dies": 3, "leakage_samples": 200, "reads_per_lap": 2,
    },
}


def run_child(name: str, tmp_path: pathlib.Path, trace: bool) -> dict:
    """child.py in a fresh process, with the workload shrunk to TINY."""
    work = tmp_path / "work"
    work.mkdir()
    argv = [name, "7", str(work)] + (["--trace", str(tmp_path / "trace.json")] if trace else [])
    script = (
        "import sys, workloads, child\n"
        f"for key, value in {TINY[name]!r}.items():\n"
        f"    setattr(workloads.WORKLOADS[{name!r}], key, value)\n"
        f"sys.exit(child.main({argv!r}))\n"
    )
    env = {"PYTHONPATH": f"{BENCH}:{ROOT / 'src'}", "PATH": "/usr/bin:/bin"}
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["ready", "done"]
    return json.loads((work / "result.json").read_text())


@pytest.mark.parametrize("name", ["cell_kernel", "yield_flow"])
def test_batch_workload_untraced(name, tmp_path):
    result = run_child(name, tmp_path, trace=False)
    assert result["problems"] == []
    assert result["checks"] > 0 and result["solver_cells"] > 0
    assert result["work_s"] > 0 and 0 < result["pfail_ci_rel"]
    # A block of reads after each timed unit.
    units = {"cell_kernel": 17, "yield_flow": 5}[name]
    assert len(result["stage_s"]) == units and abs(sum(result["stage_s"]) - result["work_s"]) < 1e-9
    assert [len(block) for block in result["read_blocks"]] == [2] * units


def test_cell_kernel_traced_bypasses_upper_layers(tmp_path):
    result = run_child("cell_kernel", tmp_path, trace=True)
    assert result["problems"] == []
    other = json.loads((tmp_path / "trace.json").read_text())["otherData"]
    metrics = report.layer_metrics(other["spans"], other["counters"])
    assert metrics["devices.current.calls"] > 0
    assert metrics["sram.metrics.cell_metrics.cells"] == 3 * 512
    touched = {k: v for k, v in metrics.items() if k.startswith(BYPASSED) and v}
    assert touched == {}
    assert metrics["trace.attributed_frac"] > 0.9


def test_yield_flow_traced_reaches_every_layer(tmp_path):
    run_child("yield_flow", tmp_path, trace=True)
    other = json.loads((tmp_path / "trace.json").read_text())["otherData"]
    metrics = report.layer_metrics(other["spans"], other["counters"])
    for name in ("failures.analysis.estimates", "core.tables.cells", "core.lot.die.calls",
                 "experiments.asb.cells", "checkpoint.flushes", "parallel.cache.hits"):
        assert metrics[name] > 0, name


@pytest.fixture
def tiny_service(monkeypatch):
    monkeypatch.setattr(service_mix, "_COMMON", {
        "target": 1e-3, "calibration_samples": 500, "analysis_samples": 64,
        "sampler": "adaptive-is", "table_grid": 4,
    })
    monkeypatch.setattr(service_mix, "COLD_INTERVAL_S", 0.7)
    monkeypatch.setattr(service_mix, "COLD_JOBS", 2)
    monkeypatch.setattr(service_mix, "BOOTS", 2)
    monkeypatch.setattr(service_mix, "WORK", service_mix.WORK / "selftest")
    yield
    shutil.rmtree(service_mix.WORK, ignore_errors=True)


def test_service_mix_untraced(tiny_service):
    outcome = service_mix.run(workloads.DEFAULT_SEED, trace=False)
    assert outcome["problems"] == [] and outcome["failed"] == 0
    assert set(outcome["metrics"]) == {m.name for m in report.END_TO_END}
    assert all(value > 0 for value in outcome["metrics"].values())


def test_service_mix_traced(tiny_service):
    outcome = service_mix.run(7, trace=True)
    assert outcome["failed"] == 0
    metrics = outcome["metrics"]
    assert {m.name for m in report.PER_LAYER} <= set(metrics)
    assert metrics["service.ledger.append.calls"] > 0
    assert metrics["devices.current.calls"] > 0
    assert metrics["service.dedupe_frac"] == 1.0

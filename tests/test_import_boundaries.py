"""Each entry point imports only what its work uses.

Import cost is most of a cold run's start-up, so the boundaries are
pinned in fresh interpreters:

* the cell kernel (``repro.sram.metrics``, ``repro.sram.leakage``,
  ``repro.technology``) needs numpy and no scipy at all;
* no library entry point loads ``scipy.stats`` (the few functions the
  library needs come from ``scipy.special``);
* the lazy package roots (``repro``, ``repro.sram``) still resolve
  every advertised name;
* the opposite direction: what a service or a lot flow boots with is
  *whole* — running a job afterwards imports nothing more, so no
  import cost lands inside a job or a timed unit.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
import sys
import textwrap

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: Prints the sorted names of every loaded module as its last line.
_REPORT = "import json, sys; print(json.dumps(sorted(sys.modules)))"


def run_python(code: str, cwd: pathlib.Path | None = None) -> str:
    """Run ``code`` in a fresh interpreter with ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}" + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def loaded_after(statement: str) -> list[str]:
    """Modules loaded by a fresh interpreter after ``statement``."""
    return json.loads(run_python(f"{statement}\n{_REPORT}"))


def is_scipy_stats(name: str) -> bool:
    return name == "scipy.stats" or name.startswith("scipy.stats.")


class TestImportSets:
    def test_cell_kernel_loads_no_scipy(self):
        modules = loaded_after(
            "import repro.sram.metrics, repro.sram.leakage, repro.technology"
        )
        assert "repro.sram.solver" in modules
        scipy = [m for m in modules if m == "scipy" or m.startswith("scipy.")]
        assert scipy == [], scipy[:10]

    @pytest.mark.parametrize(
        "entry", ["repro", "repro.service", "repro.experiments"]
    )
    def test_entry_point_loads_no_scipy_stats(self, entry):
        modules = loaded_after(f"import {entry}")
        assert entry in modules
        stats = [m for m in modules if is_scipy_stats(m)]
        assert stats == [], stats[:10]

    def test_bare_root_loads_only_itself(self):
        modules = loaded_after("import repro")
        assert [m for m in modules if m.startswith("repro")] == ["repro"]


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds"
)
def test_cell_kernel_reuses_its_pages():
    """Repeated solves reuse freed heap instead of faulting pages in.

    With no scipy import the heap keeps glibc's default 128 kB trim
    threshold unless ``repro.sram.solver`` raises it, and each
    5,000-cell batch then faults ~11k pages back in.
    """
    out = run_python(
        """
        import json, resource
        import numpy as np
        from repro.sram.cell import TRANSISTORS, CellGeometry, SixTCell
        from repro.sram.cell import cell_sigma_vt
        from repro.sram.metrics import OperatingConditions, compute_cell_metrics
        from repro.technology import ProcessCorner, predictive_70nm

        tech, geometry = predictive_70nm(), CellGeometry()
        sigmas = cell_sigma_vt(tech, geometry)
        rng = np.random.default_rng(5)
        dvt = {n: rng.normal(0, sigmas[n], 5_000) for n in TRANSISTORS}
        conditions = OperatingConditions.nominal(tech)

        def solve():
            cell = SixTCell(tech, geometry, ProcessCorner(0.0), dvt)
            compute_cell_metrics(cell, conditions)

        solve()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(3):
            solve()
        after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        print(json.dumps(after - before))
        """
    )
    assert json.loads(out) < 3_000


class TestLazyRoots:
    def test_every_export_resolves_from_a_cold_root(self):
        out = run_python(
            """
            import importlib, json
            report = {}
            for package in ("repro", "repro.sram"):
                module = importlib.import_module(package)
                listed = dir(module)
                report[package] = {
                    "missing": [n for n in module.__all__
                                if getattr(module, n, None) is None],
                    "undir": [n for n in module.__all__ if n not in listed],
                }
                try:
                    getattr(module, "no_such_export")
                except AttributeError as exc:
                    report[package]["error"] = str(exc)
            print(json.dumps(report))
            """
        )
        report = json.loads(out)
        for package in ("repro", "repro.sram"):
            assert report[package]["missing"] == []
            assert report[package]["undir"] == []
            assert report[package]["error"] == (
                f"module {package!r} has no attribute 'no_such_export'"
            )

    def test_lazy_names_are_the_defining_objects(self):
        import repro
        import repro.sram
        from repro.core.lot import LotSimulator
        from repro.sram.metrics import compute_cell_metrics

        assert repro.LotSimulator is LotSimulator
        assert repro.sram.compute_cell_metrics is compute_cell_metrics
        assert repro.OperatingConditions is repro.sram.OperatingConditions

    def test_submodules_still_import_through_the_root(self):
        modules = loaded_after("from repro import faults, observability")
        assert "repro.faults" in modules
        assert "repro.observability" in modules


#: A seconds-scale job of each kind the service runs.
_JOBS = (
    {
        "kind": "table", "target": 1e-2, "calibration_samples": 2_000,
        "analysis_samples": 300, "table_grid": 4, "vbody_levels": [0.0],
    },
    {
        "kind": "hold-surface", "target": 1e-2, "calibration_samples": 2_000,
        "analysis_samples": 300, "corner_points": 3,
        "vsb_levels": [0.0, 0.4],
    },
)


class TestBootSetsAreWhole:
    @pytest.mark.slow
    def test_service_jobs_import_nothing_after_boot(self, tmp_path):
        out = run_python(
            f"""
            import json, sys
            import repro.service.__main__  # the service's boot imports
            from repro.service.jobs import run_spec
            from repro.service.spec import normalize_spec

            before = set(sys.modules)
            for i, spec in enumerate({_JOBS!r}):
                run_spec(
                    normalize_spec(spec),
                    cache_dir=f"cache{{i}}",
                    checkpoint_dir=f"checkpoints{{i}}",
                )
            print(json.dumps(sorted(set(sys.modules) - before)))
            """,
            cwd=tmp_path,
        )
        assert json.loads(out) == []

    @pytest.mark.slow
    def test_lot_flow_imports_nothing_after_boot(self, tmp_path):
        out = run_python(
            """
            import json, sys
            # The imports perfbench's yield_flow loads before its timer.
            import repro.core.body_bias
            import repro.core.lot
            import repro.core.source_bias
            import repro.experiments.asb
            import repro.experiments.context
            import repro.failures.mpfp
            import repro.sram.array
            import repro.stats.rare_event

            import numpy as np
            from repro.core.body_bias import SelfRepairingSRAM
            from repro.core.lot import LotSimulator
            from repro.core.source_bias import SourceBiasDAC
            from repro.experiments.asb import HoldProbabilityTable
            from repro.experiments.context import ExperimentContext
            from repro.sram.array import ArrayOrganization

            before = set(sys.modules)
            ctx = ExperimentContext(
                target=1e-2, calibration_samples=2_000,
                analysis_samples=256, sampler="adaptive-is",
                sampler_scale=None, table_grid=4, seed=2006, workers=1,
                cache_dir="cache", checkpoint_dir="checkpoints",
            )
            for vbody in (-0.4, 0.0, 0.25):
                ctx.table(vbody)
            hold = HoldProbabilityTable(
                ctx, corner_grid=np.array([-0.1, 0.0, 0.1]),
                vsb_grid=np.array([0.0, 0.6]),
            )
            pipeline = SelfRepairingSRAM(
                ctx.analyzer(),
                ArrayOrganization.from_capacity(
                    2 * 1024, rows=64, redundancy_fraction=0.05
                ),
                table_provider=ctx.table,
                leakage_samples=400,
            )
            report = LotSimulator(
                pipeline, hold, dac=SourceBiasDAC(bits=5, full_scale=0.62)
            ).run(
                n_dies=6, sigma_inter=0.04, seed=1,
                executor=ctx.executor, checkpoint=ctx.checkpoint_store,
            )
            report.yield_result()
            report.rows()
            print(json.dumps(sorted(set(sys.modules) - before)))
            """,
            cwd=tmp_path,
        )
        assert json.loads(out) == []

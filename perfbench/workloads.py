"""The two batch workloads: inputs from a seed, the work, the checks.

One repetition of a batch workload runs in a fresh child process
(``child.py``) in three steps:

* ``prepare(seed, work_dir)`` — imports, inputs and context (``setup_s``);
* ``run(state, lap)`` — the measured work (``flow_s``), in units of
  well under a few seconds each, the same units in every repetition;
  after each unit it calls ``lap()``, which times the unit and then
  makes a block of ``reads(state, reads_per_lap)``, the workload's
  point queries (``read_*_ms``), outside the work's time;
* ``check(state, outputs, tap)`` — correctness, as a list of
  ``(operation, problem-or-None)``.

The host these runs share slows down by up to ~1.8x for stretches of
a fraction of a second to minutes.  Short units, each timed on its own,
let the parent keep each unit's fastest repetition (see
``proc.fastest_units``), which is not slowed unless the host was slow
every time that unit ran.

Inputs depend on the seed only.  For :data:`DEFAULT_SEED` the outputs
are compared with the committed files in ``reference/``; for any other
seed only invariants are checked, so that a later change to the program
that keeps it correct passes on every seed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import time

import numpy as np

#: The seed whose outputs are committed under ``reference/``.
DEFAULT_SEED = 1
#: z of the statistical reference comparisons (two-sided ~6e-5 per test).
REFERENCE_Z = 4.0
REFERENCE_DIR = pathlib.Path(__file__).resolve().parent / "reference"
#: The 95% z used for every reported CI half-width.
Z95 = 1.959963984540054


def rng_for(seed: int, salt: int) -> np.random.Generator:
    """The generator all of a workload's inputs are drawn from."""
    return np.random.default_rng(np.random.SeedSequence([salt, seed]))


def relative_halfwidths(estimates) -> list[float]:
    """95% CI half-width / estimate for every (estimate, stderr) with p > 0."""
    return [Z95 * se / p for p, se in estimates if p > 0 and math.isfinite(se)]


def _reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


# ----------------------------------------------------------------------
# cell_kernel
# ----------------------------------------------------------------------
def _joined(parts: list):
    """The ``CellMetrics`` of consecutive blocks as one population."""
    first = parts[0]
    return dataclasses.replace(first, **{
        field.name: np.concatenate([getattr(part, field.name) for part in parts])
        for field in dataclasses.fields(first)
        if isinstance(getattr(first, field.name), np.ndarray)
    })


class CellKernel:
    """One large ΔVt population through the cell solvers.

    ``compute_cell_metrics`` at the Fig. 2 body-bias levels, the hold
    margin at ASB standby and the cell leakage.  The devices, solver and
    metrics layers do the work on long vectors; the sampler, failure,
    table, executor and service layers are not called at all.  The
    population goes through the solvers in :attr:`blocks` blocks, so
    that each timed unit lasts about half a second.
    """

    name = "cell_kernel"
    salt = 101
    #: The calls this workload counts without timing (see layers.Tap).
    tap_targets: tuple[str, ...] = ()
    cells = 20_000
    #: Solver calls per evaluation, each on ``cells / blocks`` cells.
    blocks = 4
    vbody_levels = (-0.3, 0.0, 0.3)
    asb_vsb = 0.45
    #: Single-cell leakage queries after each of the 17 units.
    reads_per_lap = 70
    #: For the default seed, the outputs of this many leading cells and
    #: of as many extreme cells (largest sigma-normalised ΔVt norm, the
    #: tail where a solver is likeliest to go wrong) are committed, with
    #: each output's range and the failure counts over the population.
    reference_cells = 128
    #: Fixed thresholds (calibrated once at 1% per mechanism, ZBB) for
    #: the plain-MC failure fractions behind ``pfail_ci_rel``.
    criteria = {
        "delta_read": 0.1538,
        "t_write_max": 1.088e-11,
        "i_access_min": 1.032e-4,
        "hold_fraction_min": 0.9853,
    }
    voltages = (
        "v_read", "v_trip_read", "v_write", "v_trip_write",
        "v_hold_one", "v_hold_zero", "v_trip_hold",
    )
    #: Outputs that are not node voltages, compared relatively.
    derived = ("i_access", "t_write")

    def prepare(self, seed: int, work_dir: pathlib.Path) -> dict:
        import repro.sram.leakage
        import repro.sram.metrics
        from repro.sram.cell import TRANSISTORS, CellGeometry, SixTCell, cell_sigma_vt
        from repro.sram.metrics import OperatingConditions
        from repro.technology import predictive_70nm
        from repro.technology.corners import ProcessCorner

        tech = predictive_70nm()
        geometry = CellGeometry()
        sigmas = cell_sigma_vt(tech, geometry)
        rng = rng_for(seed, self.salt)
        dvt = {name: rng.normal(0.0, sigmas[name], self.cells) for name in TRANSISTORS}
        norm = np.sqrt(sum((dvt[name] / sigmas[name]) ** 2 for name in TRANSISTORS))
        nominal = OperatingConditions.nominal(tech)
        return {
            # Modules, not functions: the traced run wraps the functions
            # after this point, and calls must go through the wrappers.
            "metrics": repro.sram.metrics,
            "leakage": repro.sram.leakage,
            "SixTCell": SixTCell,
            "tech": tech,
            "geometry": geometry,
            "corner": ProcessCorner(0.0),
            "dvt": dvt,
            "blocks": [
                SixTCell(tech, geometry, ProcessCorner(0.0),
                         {name: values[index] for name, values in dvt.items()})
                for index in np.array_split(np.arange(self.cells), self.blocks)
            ],
            "cells": SixTCell(tech, geometry, ProcessCorner(0.0), dvt),
            "conditions": {
                f"metrics[vbody={vbody:+.1f}]": nominal.with_body_bias(vbody)
                for vbody in self.vbody_levels
            },
            "asb": OperatingConditions.source_biased_standby(tech, self.asb_vsb),
            # Which cells the reads query, drawn block by block.
            "read_cells": rng_for(seed, self.salt + 1),
            "reference_index": {
                "leading": np.arange(min(self.reference_cells, self.cells)),
                "extreme": np.sort(np.argsort(norm)[-self.reference_cells:]),
            },
        }

    def run(self, state: dict, lap) -> dict:
        """Three metric evaluations and the hold margin, block by block
        (one unit per block), then the leakage of the whole population."""
        metrics = state["metrics"]
        parts = {}
        for key, conditions in state["conditions"].items():
            parts[key] = []
            for block in state["blocks"]:
                parts[key].append(metrics.compute_cell_metrics(block, conditions))
                lap()
        hold = []
        for block in state["blocks"]:
            hold.append(metrics.compute_hold_margin(block, state["asb"]))
            lap()
        leakage = state["leakage"].cell_leakage(state["cells"]).total
        lap()
        return {
            "metrics": {key: _joined(values) for key, values in parts.items()},
            "hold_margin_asb": np.concatenate(hold),
            "leakage": leakage,
        }

    def solver_cells(self, state: dict, tap) -> float:
        return float(self.cells * (len(self.vbody_levels) + 1))

    def reads(self, state: dict, count: int) -> tuple[list[float], int]:
        """Single-cell leakage queries: (latencies [s], failed count)."""
        cell_leakage = state["leakage"].cell_leakage
        latencies, failed = [], 0
        for index in state["read_cells"].integers(0, self.cells, count):
            cell = state["SixTCell"](
                state["tech"], state["geometry"], state["corner"],
                {name: values[index: index + 1] for name, values in state["dvt"].items()},
            )
            start = time.perf_counter()
            total = cell_leakage(cell).total
            latencies.append(time.perf_counter() - start)
            failed += not (np.all(np.isfinite(total)) and np.all(total > 0))
        return latencies, failed

    def _failures(self, outputs: dict) -> dict:
        """Per mechanism and body-bias level: (value, threshold, tolerance);
        a cell fails when its value is below the threshold."""
        c = self.criteria
        out = {}
        for key, m in outputs["metrics"].items():
            out[f"{key}/read"] = (m.read_margin, c["delta_read"], 1e-6)
            out[f"{key}/write"] = (-m.t_write, -c["t_write_max"], 1e-4 * c["t_write_max"])
            out[f"{key}/access"] = (m.i_access, c["i_access_min"], 1e-4 * c["i_access_min"])
            out[f"{key}/hold"] = (
                m.hold_margin_fraction, c["hold_fraction_min"], 1e-6 / m.hold_rail,
            )
        return out

    def pfail_estimates(self, outputs: dict, tap) -> list[tuple[float, float]]:
        """Plain-MC (p, stderr) per mechanism and body-bias level."""
        estimates = []
        for value, threshold, _ in self._failures(outputs).values():
            p = float(np.mean(value < threshold))
            estimates.append((p, math.sqrt(p * (1.0 - p) / value.size)))
        return estimates

    def _values(self, outputs: dict, index=None) -> dict:
        """The checked outputs as flat arrays (the cells at ``index``)."""
        cut = slice(None) if index is None else index
        values = {}
        for key, m in outputs["metrics"].items():
            for field in self.voltages + self.derived:
                values[f"{key}/{field}"] = np.asarray(getattr(m, field))[cut]
        values["hold_margin_asb"] = np.asarray(outputs["hold_margin_asb"])[cut]
        values["leakage"] = np.asarray(outputs["leakage"])[cut]
        return values

    def _close(self, key: str, actual, expected) -> bool:
        """Equal within the output's tolerance: 1e-6 V for voltages."""
        field = key.split("/")[-1]
        if field in self.voltages or key == "hold_margin_asb":
            return np.allclose(actual, expected, rtol=0.0, atol=1e-6)
        if key == "leakage":
            return np.allclose(actual, expected, rtol=1e-6, atol=0.0)
        return np.allclose(actual, expected, rtol=1e-4, atol=0.0)

    def reference_payload(self, state: dict, outputs: dict, tap) -> dict:
        payload = {
            group: {
                key: [float(v) for v in array]
                for key, array in self._values(outputs, index).items()
            }
            for group, index in state["reference_index"].items()
        }
        payload["range"] = {
            key: [float(array.min()), float(array.max())]
            for key, array in self._values(outputs).items()
        }
        payload["failures"] = {
            key: int(np.sum(value < threshold))
            for key, (value, threshold, _) in self._failures(outputs).items()
        }
        return payload

    def check(self, state: dict, outputs: dict, seed: int, tap) -> list:
        """One verdict per kernel evaluation (3 metrics, hold, leakage)."""
        values = self._values(outputs, None)
        problems = {key: None for key in list(outputs["metrics"]) + ["hold_margin_asb", "leakage"]}

        def flag(key: str, message: str) -> None:
            group = key.split("/")[0]
            problems[group] = problems[group] or f"{key}: {message}"

        vdd = state["tech"].vdd
        for key, array in values.items():
            field = key.split("/")[-1]
            if field in self.voltages and not np.all((array >= -1e-9) & (array <= vdd + 1e-9)):
                flag(key, "node voltage outside the rails")
            elif field == "i_access" and not np.all(np.isfinite(array) & (array > 0)):
                flag(key, "non-positive access current")
            elif field == "t_write" and not np.all(array > 0):
                flag(key, "non-positive write time")
            elif key == "hold_margin_asb" and not np.all(np.abs(array) <= vdd):
                flag(key, "hold margin beyond the rail")
            elif key == "leakage" and not np.all(np.isfinite(array) & (array > 0)):
                flag(key, "non-positive leakage")
        if seed == DEFAULT_SEED:
            reference = _reference(self.name)
            for group, index in state["reference_index"].items():
                for key, array in self._values(outputs, index).items():
                    if not self._close(key, array, np.asarray(reference[group][key])):
                        flag(key, f"{group} cells differ from the committed reference")
            for key, array in values.items():
                if not self._close(key, [array.min(), array.max()], reference["range"][key]):
                    flag(key, "range differs from the committed reference")
            # Within tolerance, a cell on the threshold may go either way.
            for key, (value, threshold, tol) in self._failures(outputs).items():
                low, high = np.sum(value < threshold - tol), np.sum(value < threshold + tol)
                if not low <= reference["failures"][key] <= high:
                    flag(key, "failure count differs from the committed reference")
        return list(problems.items())


# ----------------------------------------------------------------------
# yield_flow
# ----------------------------------------------------------------------
class YieldFlow:
    """The Fig. 10 production-lot flow, cold.

    Calibrate criteria, build adaptive-IS failure tables at the
    generator's RBB/ZBB/FBB levels and the ASB hold surface, then run
    ``LotSimulator.run`` over the dies, with empty cache and checkpoint
    directories, as the CLI runs it.  The solver sees batches of at most
    ``analysis_samples`` cells behind the sampler and failure layers.
    """

    name = "yield_flow"
    salt = 202
    tap_targets = (
        "sram.metrics.cell_metrics",
        "sram.metrics.hold_margin",
        "failures.analysis.estimate",
    )
    #: Seed of the calibration and of every estimate's random stream.
    #: Fixed, because how much work the adaptive sampler and the hold
    #: solver do depends on it by +-20%; the run's seed draws the lot.
    context_seed = 2006
    target = 1e-4
    calibration_samples = 2_000
    analysis_samples = 256
    table_grid = 4
    #: The generator's reverse / zero / forward body-bias levels.
    vbody_levels = (-0.4, 0.0, 0.25)
    hold_corners = (-0.1, 0.0, 0.1)
    hold_vsb = (0.0, 0.6)
    dies = 40
    sigma_inter = 0.04
    leakage_samples = 1_200
    #: Warm reloads of a completed table after each of the five units.
    reads_per_lap = 70

    def _context(self, state: dict, cache_dir, checkpoint_dir):
        from repro.experiments.context import ExperimentContext

        return ExperimentContext(
            target=self.target,
            calibration_samples=self.calibration_samples,
            analysis_samples=self.analysis_samples,
            sampler="adaptive-is",
            sampler_scale=None,
            table_grid=self.table_grid,
            seed=self.context_seed,
            workers=1,
            cache_dir=cache_dir,
            checkpoint_dir=checkpoint_dir,
        )

    def prepare(self, seed: int, work_dir: pathlib.Path) -> dict:
        # Everything the flow imports, some of it lazily: a CLI run pays
        # for the imports once at start-up, so they belong to setup_s.
        import repro.core.body_bias  # noqa: F401
        import repro.core.lot  # noqa: F401
        import repro.core.source_bias  # noqa: F401
        import repro.experiments.asb  # noqa: F401
        import repro.experiments.context  # noqa: F401
        import repro.failures.mpfp  # noqa: F401
        import repro.sram.array  # noqa: F401
        import repro.stats.rare_event  # noqa: F401

        return {
            "lot_seed": int(rng_for(seed, self.salt).integers(0, 2**31 - 1)),
            "cache_dir": str(work_dir / "cache"),
            "checkpoint_dir": str(work_dir / "checkpoints"),
        }

    def run(self, state: dict, lap) -> dict:
        """Five units: the three tables, the hold surface, the lot."""
        from repro.core.body_bias import SelfRepairingSRAM
        from repro.core.lot import LotSimulator
        from repro.core.source_bias import SourceBiasDAC
        from repro.experiments.asb import HoldProbabilityTable
        from repro.sram.array import ArrayOrganization

        ctx = self._context(state, state["cache_dir"], state["checkpoint_dir"])
        tables = state["built"] = {}
        for vbody in self.vbody_levels:
            tables[vbody] = ctx.table(vbody)
            lap()
        hold = HoldProbabilityTable(
            ctx,
            corner_grid=np.array(self.hold_corners),
            vsb_grid=np.array(self.hold_vsb),
        )
        lap()
        organization = ArrayOrganization.from_capacity(
            2 * 1024, rows=64, redundancy_fraction=0.05
        )
        pipeline = SelfRepairingSRAM(
            ctx.analyzer(),
            organization,
            table_provider=ctx.table,
            leakage_samples=self.leakage_samples,
        )
        simulator = LotSimulator(
            pipeline, hold, dac=SourceBiasDAC(bits=5, full_scale=0.62)
        )
        report = simulator.run(
            n_dies=self.dies,
            sigma_inter=self.sigma_inter,
            seed=state["lot_seed"],
            executor=ctx.executor,
            checkpoint=ctx.checkpoint_store,
        )
        lap()
        return {"tables": tables, "hold": hold, "lot": report}

    def solver_cells(self, state: dict, tap) -> float:
        return tap.counters.get("sram.metrics.cells", 0.0)

    def reads(self, state: dict, count: int) -> tuple[list[float], int]:
        """Warm reloads of the tables built so far from the result cache."""
        built = list(state["built"])
        latencies, failed = [], 0
        for i in range(count):
            vbody = built[i % len(built)]
            start = time.perf_counter()
            ctx = self._context(state, state["cache_dir"], None)
            table = ctx.table(vbody)
            latencies.append(time.perf_counter() - start)
            hits = ctx.result_cache.hits
            failed += hits < 2 or table.diagnostics is None
        return latencies, failed

    @staticmethod
    def estimates(tap) -> dict[str, list[tuple[float, float]]]:
        """Every failure estimate of the run, keyed by (surface, node)."""
        out = {}
        for args, result in tap.results.get("failures.analysis.estimate", []):
            analyzer, corner = args[0], args[1]
            conditions = args[2] if len(args) > 2 and args[2] is not None else analyzer.conditions
            if hasattr(result, "any"):
                key = f"table[vbody={conditions.vbody_n:+.3f}][corner={corner.dvt_inter:+.4f}]"
                values = [(result[m].estimate, result[m].stderr)
                          for m in ("read", "write", "access", "hold", "any")]
            else:
                key = f"hold[vsb={conditions.vsb:.3f}][corner={corner.dvt_inter:+.4f}]"
                values = [(result.estimate, result.stderr)]
            out[key] = values
        return out

    def pfail_estimates(self, outputs: dict, tap) -> list[tuple[float, float]]:
        return [pair for values in self.estimates(tap).values() for pair in values]

    def reference_payload(self, state: dict, outputs: dict, tap) -> dict:
        yield_result = outputs["lot"].yield_result()
        return {
            "estimates": self.estimates(tap),
            "lot": {
                "shipped": round(yield_result.estimate * yield_result.n_samples),
                "dies": yield_result.n_samples,
                "ci_low": yield_result.ci_low,
                "ci_high": yield_result.ci_high,
            },
        }

    def check(self, state: dict, outputs: dict, seed: int, tap) -> list:
        """One verdict per failure estimate, the surfaces and the lot."""
        estimates = self.estimates(tap)
        verdicts = []
        reference = _reference(self.name) if seed == DEFAULT_SEED else None
        for key, values in estimates.items():
            problem = None
            # A weighted (importance-sampled) estimate may exceed 1; the
            # surfaces built from it are clipped, and checked below.
            if not all(p >= 0.0 and math.isfinite(p) and se >= 0.0 for p, se in values):
                problem = f"{key}: negative or non-finite estimate"
            elif reference is not None:
                expected = reference["estimates"].get(key)
                if expected is None or len(expected) != len(values):
                    problem = f"{key}: not in the committed reference"
                else:
                    for (p, se), (p_ref, se_ref) in zip(values, expected):
                        if abs(p - p_ref) > REFERENCE_Z * math.hypot(se, se_ref):
                            problem = f"{key}: {p:.3g} vs reference {p_ref:.3g}"
            verdicts.append((key, problem))
        expected_nodes = len(self.vbody_levels) * self.table_grid + len(
            self.hold_corners
        ) * len(self.hold_vsb)
        if len(estimates) != expected_nodes:
            verdicts.append(("estimates", f"{len(estimates)} estimates, expected {expected_nodes}"))
        surfaces = [
            outputs["hold"].probability(corner, vsb)
            for corner in self.hold_corners
            for vsb in self.hold_vsb
        ]
        for table in outputs["tables"].values():
            for mechanism in ("read", "write", "access", "hold", "any"):
                surfaces.extend(table.series(table.grid, mechanism))
        if not all(0.0 <= p <= 1.0 for p in surfaces):
            verdicts.append(("surfaces", "surface probability outside [0, 1]"))
        report = outputs["lot"]
        lot_problem = None
        if report.n_dies != self.dies:
            lot_problem = f"lot has {report.n_dies} dies, expected {self.dies}"
        elif reference is not None:
            lot = reference["lot"]
            if not lot["ci_low"] <= report.yield_fraction <= lot["ci_high"]:
                lot_problem = (
                    f"lot yield {report.yield_fraction:.3f} outside the reference "
                    f"CI [{lot['ci_low']:.3f}, {lot['ci_high']:.3f}]"
                )
        verdicts.append(("lot", lot_problem))
        return verdicts


WORKLOADS = {w.name: w for w in (CellKernel(), YieldFlow())}

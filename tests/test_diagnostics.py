"""Tests for ``repro.observability.diagnostics``: intervals, weight
health, the convergence recorder, and the diagnostics the stats stack
attaches to its results."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import observability
from repro.observability.diagnostics import (
    BatchDiagnostics,
    DiagnosticThresholds,
    DiagnosticsRecorder,
    assess,
    clopper_pearson_interval,
    summarize,
    weight_diagnostics,
    wilson_interval,
)
from repro.stats.montecarlo import MonteCarloResult, probability_of


@pytest.fixture(autouse=True)
def clean_observability():
    observability.disable()
    observability.reset()
    observability.diagnostics.recorder.configure(DiagnosticThresholds())
    yield
    observability.disable()
    observability.reset()
    observability.diagnostics.recorder.configure(DiagnosticThresholds())


# ----------------------------------------------------------------------
# Interval estimators
# ----------------------------------------------------------------------
class TestWilsonInterval:
    def test_contains_point_estimate(self):
        low, high = wilson_interval(30, 100)
        assert low < 0.3 < high
        assert 0.0 <= low and high <= 1.0

    def test_zero_information_is_uninformative(self):
        # No samples constrain nothing: the interval must be [0, 1],
        # never NaN (satellite: N = 0 draws is well-defined).
        for n in (0, -1, float("nan"), float("inf")):
            assert wilson_interval(0, n) == (0.0, 1.0)

    def test_zero_successes_still_bounds_above(self):
        low, high = wilson_interval(0, 1000)
        assert low == 0.0
        assert 0.0 < high < 0.01  # rule-of-three scale: ~3.8/n

    def test_all_successes_still_bounds_below(self):
        low, high = wilson_interval(1000, 1000)
        assert high == 1.0
        assert 0.99 < low < 1.0

    def test_fractional_effective_counts_accepted(self):
        # Evaluated at an ESS: fractional successes and n are legal.
        low, high = wilson_interval(2.5, 17.3)
        assert 0.0 <= low < 2.5 / 17.3 < high <= 1.0

    def test_narrows_with_n(self):
        widths = [
            np.diff(wilson_interval(n // 10, n))[0]
            for n in (100, 10_000, 1_000_000)
        ]
        assert widths[0] > widths[1] > widths[2]

    def test_rejects_nonpositive_z(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 10, z=0.0)


class TestClopperPearson:
    def test_exact_interval_covers_wilson_point(self):
        low, high = clopper_pearson_interval(30, 100)
        assert low < 0.3 < high

    def test_conservative_vs_wilson(self):
        # Exact interval is at least as wide as the score interval.
        w_low, w_high = wilson_interval(3, 50)
        c_low, c_high = clopper_pearson_interval(3, 50)
        assert c_high - c_low >= w_high - w_low - 1e-12

    def test_edges_are_closed_form(self):
        assert clopper_pearson_interval(0, 10)[0] == 0.0
        assert clopper_pearson_interval(10, 10)[1] == 1.0
        assert clopper_pearson_interval(0, 0) == (0.0, 1.0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            clopper_pearson_interval(1, 10, alpha=1.5)


# ----------------------------------------------------------------------
# Weight health (satellite: IS edge cases are well-defined, never NaN)
# ----------------------------------------------------------------------
class TestWeightDiagnostics:
    def test_uniform_weights_are_plain_mc(self):
        health = weight_diagnostics(np.ones(500))
        assert health.n_draws == 500
        assert health.ess == pytest.approx(500.0)
        assert health.ess_ratio == pytest.approx(1.0)
        assert health.max_weight_fraction == pytest.approx(1 / 500)

    def test_zero_draws(self):
        health = weight_diagnostics(np.array([]))
        assert (health.n_draws, health.ess, health.ess_ratio,
                health.max_weight_fraction) == (0, 0.0, 0.0, 0.0)

    def test_all_zero_weights(self):
        health = weight_diagnostics(np.zeros(100))
        assert health.ess == 0.0
        assert health.ess_ratio == 0.0
        assert health.max_weight_fraction == 0.0
        assert all(
            math.isfinite(v)
            for v in (health.ess, health.ess_ratio,
                      health.max_weight_fraction)
        )

    def test_single_dominant_weight(self):
        weights = np.full(1000, 1e-12)
        weights[3] = 1.0
        health = weight_diagnostics(weights)
        assert health.ess == pytest.approx(1.0, rel=1e-6)
        assert health.max_weight_fraction == pytest.approx(1.0, rel=1e-6)

    def test_nonfinite_total_degrades_gracefully(self):
        health = weight_diagnostics(np.array([1.0, np.inf]))
        assert health.ess == 0.0


# ----------------------------------------------------------------------
# MonteCarloResult diagnostic surface
# ----------------------------------------------------------------------
class TestResultDiagnostics:
    def test_unweighted_estimate_carries_ci_and_ess(self):
        indicator = np.zeros(1000, dtype=bool)
        indicator[:100] = True
        result = probability_of(indicator)
        assert result.ess == 1000.0
        assert result.ess_ratio == pytest.approx(1.0)
        assert result.ci_low < 0.1 < result.ci_high
        assert result.ci_halfwidth == pytest.approx(
            0.5 * (result.ci_high - result.ci_low)
        )
        assert result.max_weight_fraction == pytest.approx(1e-3)

    def test_weighted_ci_evaluated_at_ess(self):
        rng = np.random.default_rng(5)
        indicator = rng.random(4000) < 0.2
        skewed = np.exp(rng.normal(0, 1.5, 4000))
        result = probability_of(indicator, weights=skewed)
        assert 0 < result.ess < 4000
        # The interval at n_eff = ESS is wider than the raw-n interval.
        raw_low, raw_high = wilson_interval(
            result.estimate * 4000, 4000.0
        )
        assert (result.ci_high - result.ci_low) > (raw_high - raw_low)

    def test_collapsed_weights_report_uninformative_ci(self):
        indicator = np.ones(50, dtype=bool)
        result = probability_of(indicator, weights=np.zeros(50))
        assert result.ess == 0.0
        assert (result.ci_low, result.ci_high) == (0.0, 1.0)
        assert not math.isnan(result.estimate)

    def test_from_binomial(self):
        result = MonteCarloResult.from_binomial(7, 10)
        assert result.estimate == pytest.approx(0.7)
        assert result.ess == 10.0
        assert result.ci_low < 0.7 < result.ci_high

    def test_from_binomial_zero_trials(self):
        result = MonteCarloResult.from_binomial(0, 0)
        assert result.estimate == 0.0
        assert result.ess == 0.0
        assert (result.ci_low, result.ci_high) == (0.0, 1.0)

    def test_from_binomial_rejects_negative_n(self):
        with pytest.raises(ValueError):
            MonteCarloResult.from_binomial(0, -1)

    def test_legacy_results_have_no_diagnostics(self):
        # Positional construction (old call sites, old pickles) still
        # works and reports "no diagnostics" rather than lying.
        legacy = MonteCarloResult(0.5, 0.01, 100)
        assert legacy.ess is None
        assert legacy.ci_halfwidth is None
        assert legacy.ess_ratio is None


# ----------------------------------------------------------------------
# Thresholds and assessment
# ----------------------------------------------------------------------
class TestAssess:
    def test_converged_estimate_passes(self):
        result = MonteCarloResult.from_binomial(500, 10_000)
        assert assess(result, DiagnosticThresholds()) == []

    def test_low_ess_flagged(self):
        result = MonteCarloResult.from_binomial(5, 50)
        reasons = assess(result, DiagnosticThresholds(min_ess=200.0))
        assert len(reasons) == 1 and "ess" in reasons[0]

    def test_wide_ci_flagged_when_ceiling_set(self):
        result = MonteCarloResult.from_binomial(5, 10)
        thresholds = DiagnosticThresholds(
            min_ess=1.0, max_ci_halfwidth=1e-3
        )
        reasons = assess(result, thresholds)
        assert len(reasons) == 1 and "half-width" in reasons[0]

    def test_result_without_diagnostics_passes(self):
        assert assess(MonteCarloResult(0.5, 0.1, 3),
                      DiagnosticThresholds()) == []


class TestSummarize:
    def test_batch_summary(self):
        results = [
            MonteCarloResult.from_binomial(500, 10_000),
            MonteCarloResult.from_binomial(5, 50),  # ess 50 < 200
        ]
        batch = summarize(results, DiagnosticThresholds())
        assert batch.n_estimates == 2
        assert batch.unconverged == 1
        assert batch.min_ess == 50.0
        assert batch.worst_ci_halfwidth == pytest.approx(
            max(r.ci_halfwidth for r in results)
        )

    def test_round_trips_through_dict(self):
        batch = summarize([MonteCarloResult.from_binomial(1, 10)],
                          DiagnosticThresholds())
        assert BatchDiagnostics.from_dict(batch.as_dict()) == batch

    def test_empty_batch(self):
        batch = summarize([], DiagnosticThresholds())
        assert batch.n_estimates == 0
        assert batch.worst_ci_halfwidth is None


# ----------------------------------------------------------------------
# The recorder: scopes, thresholds, snapshot, merge
# ----------------------------------------------------------------------
class TestRecorder:
    def test_scope_aggregates_worst_case(self):
        recorder = DiagnosticsRecorder()
        recorder.record("a", MonteCarloResult.from_binomial(500, 10_000))
        recorder.record("a", MonteCarloResult.from_binomial(5, 1_000))
        snap = recorder.snapshot()
        scope = snap["scopes"]["a"]
        assert scope["n_estimates"] == 2
        assert scope["min_ess"] == 1_000.0
        assert scope["converged"]
        assert snap["unconverged_scopes"] == []

    def test_unconverged_scope_flagged(self):
        recorder = DiagnosticsRecorder()
        recorder.configure(DiagnosticThresholds(min_ess=200.0))
        recorder.record("weak", MonteCarloResult.from_binomial(1, 20))
        assert list(recorder.unconverged()) == ["weak"]
        snap = recorder.snapshot()
        assert snap["unconverged_scopes"] == ["weak"]
        assert not snap["scopes"]["weak"]["converged"]

    def test_merge_recomputes_against_local_thresholds(self):
        # A worker with lax thresholds cannot launder a weak estimate
        # past a stricter parent: verdicts are recomputed on merge.
        worker = DiagnosticsRecorder()
        worker.configure(DiagnosticThresholds(min_ess=1.0))
        worker.record("s", MonteCarloResult.from_binomial(1, 20))
        assert worker.snapshot()["unconverged_scopes"] == []

        parent = DiagnosticsRecorder()
        parent.configure(DiagnosticThresholds(min_ess=200.0))
        parent.merge(worker.snapshot())
        assert parent.snapshot()["unconverged_scopes"] == ["s"]

    def test_merge_combines_aggregates(self):
        a = DiagnosticsRecorder()
        a.record("s", MonteCarloResult.from_binomial(50, 1_000))
        b = DiagnosticsRecorder()
        b.record("s", MonteCarloResult.from_binomial(5, 500))
        a.merge(b.snapshot())
        scope = a.snapshot()["scopes"]["s"]
        assert scope["n_estimates"] == 2
        assert scope["min_ess"] == 500.0

    def test_reset_keeps_thresholds(self):
        recorder = DiagnosticsRecorder()
        recorder.configure(DiagnosticThresholds(min_ess=7.0))
        recorder.record("s", MonteCarloResult.from_binomial(1, 10))
        recorder.reset()
        assert recorder.snapshot()["scopes"] == {}
        assert recorder.thresholds.min_ess == 7.0

    def test_record_batch_restores_stored_health(self):
        # A cache-restored table re-records its persisted summary, so
        # a warm run's verdict matches the cold run that built it.
        recorder = DiagnosticsRecorder()
        stored = BatchDiagnostics(
            n_estimates=45, unconverged=0,
            worst_ci_halfwidth=0.04, min_ess=640.2, min_ess_ratio=0.08,
        )
        recorder.record_batch("table[vbody=+0.000]", stored)
        scope = recorder.snapshot()["scopes"]["table[vbody=+0.000]"]
        assert scope["n_estimates"] == 45
        assert scope["min_ess"] == 640.2
        assert scope["max_ci_halfwidth"] == 0.04
        assert scope["converged"]

        weak = BatchDiagnostics(
            n_estimates=5, unconverged=5,
            worst_ci_halfwidth=0.5, min_ess=4.0, min_ess_ratio=0.04,
        )
        recorder.record_batch("hold_table", weak)
        assert "hold_table" in recorder.snapshot()["unconverged_scopes"]

    def test_module_record_batch_is_noop_while_disabled(self):
        from repro.observability import diagnostics as diag

        batch = BatchDiagnostics(1, 0, 0.1, 10.0, 0.1)
        diag.record_batch("off", batch)
        assert diag.recorder.snapshot()["scopes"] == {}
        observability.enable()
        diag.record_batch("on", batch)
        assert diag.recorder.snapshot()["scopes"]["on"]["n_estimates"] == 1

    def test_module_record_is_noop_while_disabled(self):
        from repro.observability import diagnostics as diag

        diag.record("off", MonteCarloResult.from_binomial(1, 10))
        assert diag.recorder.snapshot()["scopes"] == {}
        observability.enable()
        diag.record("on", MonteCarloResult.from_binomial(1, 10))
        assert "on" in diag.recorder.snapshot()["scopes"]


# ----------------------------------------------------------------------
# Integration: the snapshot and the worker boundary
# ----------------------------------------------------------------------
class TestSnapshotIntegration:
    def test_telemetry_snapshot_has_diagnostics_block(self):
        observability.enable()
        from repro.observability import diagnostics as diag

        diag.record("scope", MonteCarloResult.from_binomial(500, 10_000))
        report = observability.snapshot()
        assert report["schema"] == "repro.telemetry/1"
        block = report["diagnostics"]
        assert "scope" in block["scopes"]
        assert block["thresholds"]["min_ess"] == pytest.approx(
            diag.recorder.thresholds.min_ess
        )

    def test_worker_snapshot_round_trip(self):
        from repro.observability import diagnostics as diag

        # Worker side: isolated scope, one estimate, shipped snapshot.
        observability.worker_begin()
        diag.record("worker.scope", MonteCarloResult.from_binomial(9, 900))
        shipped = observability.worker_snapshot()
        assert "worker.scope" in shipped["diagnostics"]["scopes"]
        # Parent side: fresh collectors absorb the shipped delta.
        observability.reset()
        observability.enable()
        observability.merge_worker(shipped)
        merged = diag.recorder.snapshot()["scopes"]
        assert "worker.scope" in merged
        assert merged["worker.scope"]["n_estimates"] == 1

    def test_analysis_records_per_mechanism_scopes(self):
        # The failure-analysis layer feeds the recorder one scope per
        # mechanism when collection is on.
        observability.enable()
        from repro.observability import diagnostics as diag
        from repro.experiments.context import ExperimentContext
        from repro.technology.corners import ProcessCorner

        ctx = ExperimentContext(
            target=1e-4,
            calibration_samples=1_500,
            analysis_samples=800,
            table_grid=3,
        )
        analyzer = ctx.analyzer()
        analyzer.failure_probabilities(ProcessCorner(0.0))
        scopes = diag.recorder.snapshot()["scopes"]
        assert any(name.startswith("analysis.") for name in scopes)
        named = next(s for n, s in scopes.items()
                     if n.startswith("analysis."))
        assert named["min_ess"] is not None
        assert named["max_ci_halfwidth"] is not None

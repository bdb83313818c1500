"""Command-line experiment runner.

Regenerate any paper figure from the shell::

    python -m repro.experiments fig2a
    python -m repro.experiments fig10 --fast
    python -m repro.experiments fig2c --workers 4 --cache-dir ~/.cache/repro
    python -m repro.experiments fig2a --fast -v --metrics-out /tmp/m.json
    python -m repro.experiments --list

``--fast`` swaps in a reduced-accuracy context (seconds instead of
minutes) for a quick qualitative look.  ``--workers`` fans the sweep
grids out across processes (bit-identical results at any count) and
``--cache-dir`` persists calibrated criteria and built tables so the
next run of the same figure starts warm (see ``docs/performance.md``).
``--sampler`` selects the rare-event sampling strategy behind every
failure estimate (``adaptive-is`` is typically an order of magnitude
cheaper in solver calls at equal accuracy — see ``docs/statistics.md``).

Telemetry (see ``docs/observability.md``): ``-v``/``-vv`` streams
structured progress events to stderr (``--log-json`` renders them as
JSON lines), and ``--metrics-out FILE`` writes a machine-readable
report — per-stage wall-time spans, Monte-Carlo sample counts, cache
hit/miss counters, plus a ``meta`` block (git SHA, seed, workers,
environment) that makes stored reports self-describing — after the
run.  An existing FILE is never silently overwritten: the report goes
to a numbered sibling (``m.1.json``) with a warning unless
``--metrics-overwrite`` is passed.  ``--profile-out FILE``
additionally runs the experiment under cProfile scoped to its trace
span and writes a ``pstats``-loadable stats file, for localising a
regression to a function (see ``docs/observability.md``).
``--trace-out FILE`` records a bounded span timeline (merged across
workers) and writes Chrome trace-event JSON for Perfetto /
``chrome://tracing`` flamegraphs.

Robustness (see ``docs/robustness.md``): ``--checkpoint-dir DIR``
flushes completed grid cells / dies during long builds so a killed run
resumes exactly (``--checkpoint-every N`` sets the cadence), and the
``REPRO_FAULT_PLAN`` environment variable (inline JSON or
``@/path/to/plan.json``) arms the chaos-injection harness used by the
CI ``chaos-smoke`` job.  A task that exhausts its retry budget exits
with status 4 and a clear message instead of a partial result.

Estimator health: ``--diagnostics`` prints a per-scope convergence
summary (effective sample sizes, CI half-widths) after the run and
includes the ``diagnostics`` block in the ``--metrics-out`` report;
``--min-ess`` / ``--max-ci-halfwidth`` set what "converged" means, and
``--strict-diagnostics`` exits with status 3 when any estimate fails
them — so a pipeline cannot silently ship a yield number whose CI is
wider than the effect it claims.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro import faults, observability
from repro.checkpoint import FLUSH_EVERY
from repro.observability.diagnostics import DiagnosticThresholds
from repro.observability.output import resolve_out_path as _resolve_out_path
from repro.stats.rare_event import SAMPLER_NAMES
from repro.parallel.executor import TaskError
from repro.experiments.context import ExperimentContext, default_context
from repro.experiments.registry import (
    EXPERIMENTS,
    EXTENSIONS,
    render_markdown,
    run_experiment,
)


def _fast_context() -> ExperimentContext:
    return ExperimentContext(
        target=1e-5,
        calibration_samples=20_000,
        analysis_samples=8_000,
        table_grid=9,
    )


#: Exit status of a ``--strict-diagnostics`` convergence failure
#: (distinct from argparse's 2 and success's 0).
EXIT_UNCONVERGED = 3

#: Exit status when a task exhausts its retry budget (the run could
#: not produce a trustworthy result; partial output is never printed).
EXIT_TASK_FAILURE = 4


def _resolve_metrics_path(path: str, overwrite: bool, logger) -> str:
    """Backward-compatible alias for the telemetry-report path."""
    return _resolve_out_path(
        path, overwrite, logger, "metrics", "--metrics-overwrite"
    )


def _print_diagnostics_summary(recorder) -> dict:
    """Render the estimator-health verdict; return the failing scopes."""
    snapshot = recorder.snapshot()
    failing = recorder.unconverged()
    print("\nestimator-health diagnostics "
          f"(min ESS {recorder.thresholds.min_ess:g}"
          + (f", max CI half-width {recorder.thresholds.max_ci_halfwidth:g}"
             if recorder.thresholds.max_ci_halfwidth is not None else "")
          + "):")
    scopes = snapshot["scopes"]
    if not scopes:
        print("  (no estimates recorded)")
        return failing
    for name, scope in scopes.items():
        verdict = "ok" if scope["converged"] else "UNCONVERGED"
        line = (
            f"  {name:28s} {verdict:12s}"
            f" estimates={scope['n_estimates']}"
        )
        if scope["min_ess"] is not None:
            line += f" min_ess={scope['min_ess']:.1f}"
        if scope["max_ci_halfwidth"] is not None:
            line += f" worst_ci_halfwidth={scope['max_ci_halfwidth']:.3g}"
        print(line)
    for name, reasons in failing.items():
        print(f"  !! {name}: {'; '.join(reasons)}")
    return failing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate a figure from the SOCC 2006 paper.",
    )
    parser.add_argument(
        "figure",
        nargs="?",
        help="experiment id (e.g. fig2a); see --list",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments"
    )
    parser.add_argument(
        "--doc",
        action="store_true",
        help="print the experiment catalogue as markdown "
        "(the generated body of docs/experiments.md)",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="reduced-accuracy context (quick qualitative run)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="processes for sweep fan-out (default 1 = serial; "
        "results are identical at any worker count)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist criteria/tables to DIR and reuse them on reruns",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="structured progress logs on stderr (-vv for debug)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="render progress logs as JSON lines instead of text",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write a JSON telemetry report (spans, counters) to FILE; "
        "an existing FILE diverts to a numbered sibling unless "
        "--metrics-overwrite is passed",
    )
    parser.add_argument(
        "--metrics-overwrite",
        action="store_true",
        help="allow --metrics-out to replace an existing file",
    )
    parser.add_argument(
        "--diagnostics",
        action="store_true",
        help="collect estimator-health diagnostics (CIs, effective "
        "sample sizes) and print a convergence summary after the run",
    )
    parser.add_argument(
        "--strict-diagnostics",
        action="store_true",
        help=f"like --diagnostics, but exit {EXIT_UNCONVERGED} when any "
        "estimate fails the convergence thresholds",
    )
    parser.add_argument(
        "--min-ess",
        type=float,
        default=None,
        metavar="N",
        help="effective-sample-size floor per estimate (default "
        f"{DiagnosticThresholds.min_ess})",
    )
    parser.add_argument(
        "--max-ci-halfwidth",
        type=float,
        default=None,
        metavar="W",
        help="ceiling on the 95%% CI half-width per estimate "
        "(default: not checked)",
    )
    parser.add_argument(
        "--analysis-samples",
        type=int,
        default=None,
        metavar="N",
        help="override the context's solver-call budget per failure "
        "estimate (deliberately small values exercise the "
        "diagnostics gate)",
    )
    parser.add_argument(
        "--sampler",
        choices=list(SAMPLER_NAMES),
        default=None,
        metavar="NAME",
        help="rare-event sampling strategy: plain (no inflation), "
        "scaled (sigma inflation, auto-tuned from a pilot batch), "
        "adaptive-is (MPFP-seeded mean-shift importance sampling), or "
        "blockade (statistical blockade pre-classifier); default: the "
        "context's legacy fixed-scale sampler (see docs/statistics.md)",
    )
    parser.add_argument(
        "--profile-out",
        default=None,
        metavar="FILE",
        help="run under cProfile and write pstats-loadable stats to "
        "FILE (inspect with `python -m pstats FILE`); an existing FILE "
        "diverts to a numbered sibling unless --profile-overwrite is "
        "passed",
    )
    parser.add_argument(
        "--profile-overwrite",
        action="store_true",
        help="allow --profile-out to replace an existing file",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="record a span timeline and write it as Chrome trace-event "
        "JSON to FILE (open in Perfetto or chrome://tracing); an "
        "existing FILE diverts to a numbered sibling unless "
        "--trace-overwrite is passed",
    )
    parser.add_argument(
        "--trace-overwrite",
        action="store_true",
        help="allow --trace-out to replace an existing file",
    )
    parser.add_argument(
        "--run-id",
        default=None,
        metavar="ID",
        help="correlation id for this run: stamped as run_id= on every "
        "structured log event (human and --log-json), into the "
        "--metrics-out report, and into the --trace-out metadata — "
        "one key to join a run's logs, metrics, and traces offline",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="flush completed grid cells / dies to DIR during long "
        "builds; a killed run re-invoked with the same parameters "
        "resumes from the last flush (bit-identical results)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=FLUSH_EVERY,
        metavar="N",
        help="completed cells per checkpoint flush (default %(default)s)",
    )
    args = parser.parse_args(argv)

    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if args.checkpoint_every < 1:
        parser.error(
            f"--checkpoint-every must be >= 1, got {args.checkpoint_every}"
        )

    if args.doc:
        print(render_markdown(), end="")
        return 0

    if args.list or not args.figure:
        print("paper figures:")
        for name, spec in sorted(EXPERIMENTS.items()):
            print(f"  {name:16s}  {spec.description}")
        print("extensions:")
        for name, spec in sorted(EXTENSIONS.items()):
            print(f"  {name:16s}  {spec.description}")
        return 0

    if args.figure not in EXPERIMENTS and args.figure not in EXTENSIONS:
        parser.error(
            f"unknown experiment {args.figure!r}; try --list"
        )

    # Telemetry: logs whenever -v/--log-json asks for them; metric and
    # trace collection only when a report, a profile, or the
    # estimator-health gate will consume it.
    diagnose = args.diagnostics or args.strict_diagnostics
    if (args.min_ess is not None or args.max_ci_halfwidth is not None) and (
        not diagnose and args.metrics_out is None
    ):
        parser.error(
            "--min-ess/--max-ci-halfwidth need --diagnostics, "
            "--strict-diagnostics, or --metrics-out"
        )
    if args.run_id is not None and not args.run_id.strip():
        parser.error("--run-id must be a non-empty string")
    if args.run_id is not None:
        # Name the root scope (the CLI is one run): every log event
        # below — and in every pool worker — carries run_id=<ID>, with
        # or without metric collection.
        observability.context.name_root(args.run_id)
    collect = args.metrics_out is not None
    profiling = args.profile_out is not None
    timeline = args.trace_out is not None
    if args.verbose or args.log_json or collect or profiling or diagnose or timeline:
        observability.configure(
            verbosity=args.verbose,
            json_lines=args.log_json,
            # Timeline events are recorded by trace() spans, which only
            # fire while metric/trace collection is enabled.
            metrics=collect or profiling or diagnose or timeline,
        )
    if timeline:
        observability.enable_timeline()
    observability.diagnostics.recorder.configure(
        DiagnosticThresholds(
            min_ess=(
                args.min_ess
                if args.min_ess is not None
                else DiagnosticThresholds.min_ess
            ),
            max_ci_halfwidth=args.max_ci_halfwidth,
        )
    )
    if profiling:
        observability.enable_profiling()

    # Chaos harness: the REPRO_FAULT_PLAN environment hook arms a fault
    # plan (inline JSON or @/path/to/plan.json) for this run.  A
    # malformed plan is a loud configuration error, never ignored.
    try:
        fault_plan = faults.plan_from_env()
    except ValueError as exc:
        parser.error(str(exc))

    ctx = _fast_context() if args.fast else default_context()
    try:
        ctx.configure_execution(
            workers=args.workers if args.workers != 1 else None,
            cache_dir=args.cache_dir,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            fault_plan=fault_plan,
        )
    except NotADirectoryError as exc:
        parser.error(str(exc))
    if args.analysis_samples is not None:
        if args.analysis_samples < 1:
            parser.error(
                f"--analysis-samples must be >= 1, got {args.analysis_samples}"
            )
        ctx.analysis_samples = args.analysis_samples
    if args.sampler is not None:
        # Explicit "scaled" selects the auto-tuned scale (the context
        # default keeps the legacy fixed inflation for bit-compat).
        ctx.configure_sampling(sampler=args.sampler)
    start = time.time()
    try:
        with observability.profile(args.figure):
            result = run_experiment(args.figure, ctx)
    except TaskError as exc:
        # Exhausted retries: the run cannot produce a trustworthy
        # result, so print nothing that looks like one.
        print(
            f"ERROR: {args.figure} aborted — {exc}\n"
            "(every retry attempt was exhausted; see docs/robustness.md; "
            "partial progress is preserved when --checkpoint-dir is set)",
            file=sys.stderr,
        )
        return EXIT_TASK_FAILURE
    elapsed = time.time() - start
    print("\n".join(result.rows()))
    print(f"\n[{args.figure} regenerated in {elapsed:.1f}s"
          f"{' (fast context)' if args.fast else ''}]")

    if collect:
        report = observability.snapshot()
        report["experiment"] = args.figure
        if args.run_id is not None:
            report["run_id"] = args.run_id
        report["elapsed_seconds"] = round(elapsed, 3)
        report["invocation"] = {
            "fast": args.fast,
            "workers": args.workers,
            "cache_dir": args.cache_dir,
            "checkpoint_dir": args.checkpoint_dir,
            "sampler": ctx.sampler,
        }
        # Self-describing reports: where and how this was measured.
        # Additive under schema repro.telemetry/1 — readers that only
        # know metrics/trace keep working.
        report["meta"] = {
            **observability.environment_fingerprint(),
            "seed": ctx.seed,
            "workers": args.workers,
            "run_id": args.run_id,
        }
        logger = observability.get_logger("experiments.cli")
        metrics_path = _resolve_metrics_path(
            args.metrics_out, args.metrics_overwrite, logger
        )
        with open(metrics_path, "w") as fh:
            json.dump(report, fh, indent=2)
        logger.info("metrics.written", path=metrics_path)
    if profiling:
        logger = observability.get_logger("experiments.cli")
        profile_path = _resolve_out_path(
            args.profile_out, args.profile_overwrite, logger,
            "profile", "--profile-overwrite",
        )
        spans = observability.write_profile(profile_path)
        logger.info(
            "profile.written", path=profile_path, spans=len(spans)
        )
    if timeline:
        logger = observability.get_logger("experiments.cli")
        document = observability.export.chrome_trace(
            observability.timeline_snapshot(),
            meta={
                "experiment": args.figure,
                "run_id": args.run_id,
                "elapsed_seconds": round(elapsed, 3),
                "workers": args.workers,
                "git_sha": observability.git_sha(),
            },
        )
        trace_path = _resolve_out_path(
            args.trace_out, args.trace_overwrite, logger,
            "trace", "--trace-overwrite",
        )
        with open(trace_path, "w") as fh:
            json.dump(document, fh)
        logger.info(
            "trace.written", path=trace_path,
            events=len(document["traceEvents"]),
        )
    if diagnose:
        logger = observability.get_logger("experiments.cli")
        failing = _print_diagnostics_summary(
            observability.diagnostics.recorder
        )
        for scope, reasons in failing.items():
            logger.warning(
                "diagnostics.unconverged", scope=scope,
                reasons="; ".join(reasons),
            )
        if failing and args.strict_diagnostics:
            print(
                f"FAIL: {len(failing)} scope(s) unconverged under "
                "--strict-diagnostics",
                file=sys.stderr,
            )
            return EXIT_UNCONVERGED
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The repository benchmark: one command per workload, every metric.

    python3 perfbench/run.py --workload cell_kernel --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing timed inside
the program; ``--trace 1`` makes the traced run and reports the
per-layer metrics instead.  Every repetition runs in a fresh process.
The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give each metric with its unit and sample count.  The exit code is 1
when a correctness check failed and 2 when nothing could be measured.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import report
import service_mix
import workloads
from proc import (
    ROOT, WORK, BenchError, Child, fastest_block, fastest_units, median,
)

CHILD = ROOT / "perfbench" / "child.py"
WORKLOADS = ("cell_kernel", "yield_flow", "service_mix")
#: Repetitions of an untraced run, at least and at most.
MIN_REPS, MAX_REPS = 3, 12
#: Seconds one repetition may take before it is abandoned.
REP_TIMEOUT = 150.0


def _repetition(name: str, seed: int, rep_dir, trace_path) -> dict:
    """One fresh child process; its result plus the parent's timings."""
    rep_dir.mkdir(parents=True)
    args = [str(CHILD), name, str(seed), str(rep_dir)]
    if trace_path is not None:
        args += ["--trace", str(trace_path)]
    child = Child(args, rep_dir / "stderr.log")
    try:
        setup_s = child.expect("ready", REP_TIMEOUT)
        child.expect("done", REP_TIMEOUT)
        code = child.finish(REP_TIMEOUT)
    except BenchError:
        child.kill()
        raise
    if code != 0:
        raise BenchError(f"{name} repetition exited {code}: {child.tail()}")
    result = json.loads((rep_dir / "result.json").read_text())
    result.update(setup_s=setup_s, peak_rss_mb=child.peak_rss_mb)
    shutil.rmtree(rep_dir)
    return result


def _checks(reps: list[dict]) -> tuple[int, int, list[str]]:
    attempted = sum(rep["checks"] + sum(map(len, rep["read_blocks"])) for rep in reps)
    problems = [p for rep in reps for p in rep["problems"]]
    failed = len(problems) + sum(rep["read_failed"] for rep in reps)
    return attempted, failed, problems


def run_batch(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat a batch workload in fresh processes for ``seconds``.

    Untraced, the work's time is the sum over its units of each unit's
    fastest repetition, the reads' median and p99 the lowest of any block
    of reads, and the other metrics are medians over the repetitions.
    Traced, untraced and traced repetitions alternate: the traced ones
    give the per-layer metrics, the pair gives the tracing overhead.
    """
    base = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    while True:
        plain.append(_repetition(name, seed, base / f"rep{len(plain)}", None))
        if trace:
            path = traces / f"{name}-seed{seed}-{len(traced)}.json"
            traced.append(_repetition(name, seed, base / f"traced{len(traced)}", path))
            traced[-1]["trace"] = path
        elapsed = time.perf_counter() - start
        rounds = len(plain)
        if rounds >= MAX_REPS:
            break
        if rounds >= (1 if trace else MIN_REPS) and elapsed * (rounds + 1) / rounds > seconds:
            break
    shutil.rmtree(base, ignore_errors=True)
    attempted, failed, problems = _checks(plain + traced)

    if trace:
        per_rep = []
        for rep in traced:
            other = json.loads(rep["trace"].read_text())["otherData"]
            per_rep.append(report.layer_metrics(other["spans"], other["counters"]))
        metrics = {m.name: median(r[m.name] for r in per_rep) for m in report.PER_LAYER}
        metrics["observability.trace_overhead_frac"] = (
            fastest_units(r["stage_s"] for r in traced)
            / fastest_units(r["stage_s"] for r in plain) - 1.0
        )
        samples = {m.name: len(traced) for m in report.PER_LAYER}
    else:
        blocks = [block for rep in plain for block in rep["read_blocks"]]
        reads = [s for block in blocks for s in block]
        setup_s = median(r["setup_s"] for r in plain)
        flow_s = fastest_units(r["stage_s"] for r in plain)
        metrics = {
            "setup_s": setup_s,
            "cells_per_s": median(r["solver_cells"] for r in plain) / flow_s,
            "flow_s": flow_s,
            "pfail_ci_rel": median(r["pfail_ci_rel"] for r in plain),
            # What a CLI user waits for: spawn -> work done.
            "job_p50_s": setup_s + flow_s,
            "read_p50_ms": fastest_block(blocks, 50) * 1e3,
            # About 1% of the reads stall for 3-7 ms in clusters (the host,
            # not the garbage collector): a p99 over all of the reads, or
            # the median block's, falls on either side of that by chance.
            "read_p99_ms": fastest_block(blocks, 99) * 1e3,
            "ok_frac": 1.0 - failed / attempted,
            "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
        }
        samples = {m.name: len(plain) for m in report.END_TO_END}
        samples["read_p50_ms"] = samples["read_p99_ms"] = len(reads)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "samples": samples,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload == "service_mix":
            outcome = service_mix.run(args.seed, bool(args.trace))
        else:
            outcome = run_batch(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for problem in outcome["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    declared = report.PER_LAYER if args.trace else report.END_TO_END
    for metric in declared:
        value = outcome["metrics"][metric.name]
        print(
            f"{metric.name:<46} {value:>14.6g} {metric.unit:<9}"
            f" n={outcome['samples'].get(metric.name, 0)}"
        )
    correct = outcome["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            m.name: {"value": outcome["metrics"][m.name], "unit": m.unit}
            for m in declared
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""One repetition of a batch workload, in a fresh process.

    PYTHONPATH=src python3 perfbench/child.py WORKLOAD SEED WORK_DIR [--trace FILE]

Prints ``ready`` once imports, inputs and context are in place (the
parent times spawn -> ``ready`` as ``setup_s``) and ``done`` when the
measured work has finished.  Each unit of the work is timed on its own
(``stage_s``); the block of point reads made after each unit is timed
apart and left out of the work's time.  Then it runs the checks
and writes ``WORK_DIR/result.json``.  With ``--trace`` the layers are
wrapped before ``ready`` and the spans are written to FILE as a Chrome
trace.  ``--write-reference`` (default seed only) stores the outputs as
the committed reference instead of checking them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import sys
import time

import layers
import report
import workloads
from proc import median


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("work_dir", type=pathlib.Path)
    parser.add_argument("--trace", type=pathlib.Path, default=None)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    state = workload.prepare(args.seed, args.work_dir)
    tap = layers.Tap()
    layers.install(tap, layers.targets_named(workload.tap_targets))
    recorder = None
    if args.trace is not None:
        recorder = layers.Recorder()
        layers.install(recorder)
    print("ready", flush=True)

    stage_s, read_blocks, read_failed = [], [], 0
    mark = 0.0

    def lap() -> None:
        """End one timed unit of the work; a block of reads follows it."""
        nonlocal mark, read_failed
        stage_s.append(time.perf_counter() - mark)
        latencies, failed = workload.reads(state, workload.reads_per_lap)
        read_blocks.append(latencies)
        read_failed += failed
        mark = time.perf_counter()

    root = recorder.span(report.ROOT_SPAN) if recorder else contextlib.nullcontext()
    with root:
        mark = time.perf_counter()
        outputs = workload.run(state, lap)
        print("done", flush=True)
    work_s = sum(stage_s)

    if args.write_reference:
        if args.seed != workloads.DEFAULT_SEED:
            parser.error("references are committed for the default seed only")
        path = workloads.REFERENCE_DIR / f"{workload.name}.json"
        path.parent.mkdir(exist_ok=True)
        payload = workload.reference_payload(state, outputs, tap)
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        return 0

    verdicts = workload.check(state, outputs, args.seed, tap)
    halfwidths = workloads.relative_halfwidths(workload.pfail_estimates(outputs, tap))
    result = {
        "work_s": work_s,
        "stage_s": stage_s,
        "solver_cells": workload.solver_cells(state, tap),
        "pfail_ci_rel": median(halfwidths),
        "read_blocks": read_blocks,
        "read_failed": read_failed,
        "checks": len(verdicts),
        "problems": [problem for _, problem in verdicts if problem],
    }
    if recorder is not None:
        document = recorder.document(
            {"workload": workload.name, "seed": args.seed, "wall_s": work_s}
        )
        args.trace.write_text(json.dumps(document))
    (args.work_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

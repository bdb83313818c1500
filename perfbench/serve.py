"""Launch the job server with its layers wrapped, for the traced run.

    PYTHONPATH=src python3 perfbench/serve.py TRACE_FILE [repro.service arguments...]

The same single process as ``python -m repro.service``: the wrappers are
installed first (before the job pool exists), then
``repro.service.__main__.main`` runs with the remaining arguments.  When
it returns after a graceful drain (SIGTERM), the spans are written to
TRACE_FILE as a Chrome trace.
"""

from __future__ import annotations

import json
import pathlib
import sys

import layers


def main(argv: list[str]) -> int:
    trace_path = pathlib.Path(argv[0])
    recorder = layers.Recorder()
    layers.install(recorder)
    from repro.service.__main__ import main as serve

    code = serve(argv[1:])
    trace_path.write_text(json.dumps(recorder.document({"workload": "service_mix"})))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

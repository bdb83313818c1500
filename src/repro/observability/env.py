"""Environment fingerprinting for self-describing telemetry.

A stored telemetry report is only longitudinal
data if it says *where it came from*: the code revision, interpreter,
numerical stack and hardware width it was measured on.
:func:`environment_fingerprint` gathers exactly that, cheaply and
without raising — a missing ``git`` binary or a non-repo checkout
degrades the SHA to ``None``, never to an exception, so the telemetry
path can never fail a run.

Consumed by the ``meta`` block of the ``--metrics-out`` report
(``python -m repro.experiments``; see ``docs/observability.md``).
"""

from __future__ import annotations

import os
import platform
import subprocess

import numpy as np


def git_sha(short: bool = False) -> str | None:
    """The current checkout's HEAD commit, or ``None`` outside a repo."""
    cmd = ["git", "rev-parse"] + (["--short"] if short else []) + ["HEAD"]
    try:
        out = subprocess.run(
            cmd,
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    sha = out.stdout.strip()
    return sha or None


def environment_fingerprint() -> dict:
    """Everything a stored measurement needs to be interpretable later.

    Returns a JSON-ready dict::

        {"git_sha":   "<full hex or None>",
         "python":    "3.11.7",
         "numpy":     "1.26.4",
         "platform":  "Linux-...-x86_64",
         "cpu_count": 8}
    """
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }

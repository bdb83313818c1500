"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one figure of the paper on the shared
full-accuracy context, asserts the figure's qualitative shape (who
wins, where the bathtub bottoms out, by roughly what factor), prints
the series, and writes it to ``benchmarks/results/<fig>.txt``.

Run with:  pytest benchmarks/ -s
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.context import default_context

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def ctx():
    """The shared full-accuracy experiment context.

    Criteria calibration and the interpolated probability tables are
    built once and reused by every figure benchmark.
    """
    return default_context()


@pytest.fixture(scope="session")
def save_result():
    """Writer: persist a figure's rows under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, rows: list[str]) -> None:
        text = "\n".join(rows) + "\n"
        (RESULTS_DIR / f"{name}.txt").write_text(text)
        print(f"\n=== {name} ===")
        print(text)

    return _save

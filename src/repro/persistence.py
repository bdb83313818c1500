"""Persistence of expensive calibration artifacts.

Criteria calibration and the interpolated probability tables take
minutes at full accuracy; a downstream user should pay that once.
This module serialises them to plain JSON (no pickle — the files are
human-inspectable and safe to commit):

* :func:`save_criteria` / :func:`load_criteria` — the four calibrated
  thresholds plus a fingerprint of the technology card they were
  calibrated against (loading verifies the fingerprint so stale
  criteria cannot silently corrupt an analysis);
* :func:`save_table` / :func:`load_table` — a
  :class:`~repro.core.tables.FailureProbabilityTable`'s grid and
  log-probabilities, rebuilt into an interpolator on load without
  re-running any Monte Carlo.

Durability: every file is written atomically (temp + rename) and
sealed with an embedded SHA-256 checksum via :mod:`repro.durable`;
loading verifies the checksum, so a truncated or bit-rotted artifact
fails with a clear :class:`~repro.durable.CorruptStateError` instead
of silently feeding garbage splines into an analysis.  Format-1 files
(written before checksums existed) still load, unverified.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib

import numpy as np

from repro import durable
from repro.core.tables import FailureProbabilityTable
from repro.failures.criteria import FailureCriteria
from repro.technology.parameters import TechnologyParameters

#: Format version written into every file (2 = checksummed envelope).
_FORMAT = 2
#: Formats this module can still read (1 predates the checksum and
#: loads unverified).
_READABLE_FORMATS = (1, 2)


def technology_fingerprint(tech: TechnologyParameters) -> str:
    """A stable hash of every parameter in the technology card."""
    payload = json.dumps(
        dataclasses.asdict(tech), sort_keys=True, default=float
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _save(
    path: str | pathlib.Path,
    kind: str,
    tech: TechnologyParameters,
    **body: object,
) -> None:
    """Write one sealed file of ``kind`` for technology card ``tech``."""
    durable.write_sealed(
        path,
        {
            "format": _FORMAT,
            "kind": kind,
            "technology": tech.name,
            "fingerprint": technology_fingerprint(tech),
            **body,
        },
    )


def _load(
    path: str | pathlib.Path,
    kind: str,
    noun: str,
    tech: TechnologyParameters,
    strict: bool,
) -> dict:
    """Read one file through :func:`repro.durable.read_sealed`.

    The caller named this file, so a damaged one raises (it is not
    quarantined the way a cache entry is), and so does one of another
    kind or, when ``strict``, one built for another technology card.
    """
    try:
        payload = durable.read_sealed(path, _READABLE_FORMATS, unsealed=(1,))
    except durable.CorruptStateError as exc:
        raise durable.CorruptStateError(
            f"{path} is corrupt or truncated: it failed integrity "
            f"verification ({exc}); rebuild it"
        ) from exc
    if payload.get("kind") != kind:
        raise ValueError(f"{path} is not a {noun} file")
    if strict and payload["fingerprint"] != technology_fingerprint(tech):
        raise ValueError(
            f"{path} was built against a different technology card "
            f"(stored fingerprint {payload['fingerprint']})"
        )
    return payload


def save_criteria(
    criteria: FailureCriteria,
    path: str | pathlib.Path,
    tech: TechnologyParameters,
) -> None:
    """Write calibrated criteria (and the technology fingerprint)."""
    _save(
        path, "failure-criteria", tech, criteria=dataclasses.asdict(criteria)
    )


def load_criteria(
    path: str | pathlib.Path,
    tech: TechnologyParameters,
    strict: bool = True,
) -> FailureCriteria:
    """Load criteria, verifying integrity and that they match ``tech``.

    Args:
        path: the JSON file written by :func:`save_criteria`.
        tech: the technology card the criteria will be used with.
        strict: raise if the stored fingerprint does not match ``tech``
            (set False to knowingly reuse criteria across card tweaks).
    """
    payload = _load(path, "failure-criteria", "criteria", tech, strict)
    return FailureCriteria(**payload["criteria"])


def save_table(
    table: FailureProbabilityTable,
    path: str | pathlib.Path,
    tech: TechnologyParameters,
) -> None:
    """Write a failure-probability table's grid data."""
    grid = table.grid
    body = {
        "grid": [float(x) for x in grid],
        "log10_probability": {
            name: [float(spline(x)) for x in grid]
            for name, spline in table._splines.items()
        },
        "conditions": dataclasses.asdict(table.conditions),
    }
    diagnostics = getattr(table, "diagnostics", None)
    if diagnostics is not None:
        # Estimator health travels with the numbers it qualifies, so a
        # table loaded years later still reports how converged it was.
        body["diagnostics"] = diagnostics.as_dict()
    _save(path, "failure-table", tech, **body)


def load_table(
    path: str | pathlib.Path,
    tech: TechnologyParameters,
    strict: bool = True,
) -> FailureProbabilityTable:
    """Rebuild a table from disk without re-running Monte Carlo."""
    from scipy.interpolate import PchipInterpolator

    from repro.sram.metrics import OperatingConditions

    payload = _load(path, "failure-table", "table", tech, strict)
    from repro.observability.diagnostics import BatchDiagnostics

    table = FailureProbabilityTable.__new__(FailureProbabilityTable)
    table.analyzer = None  # detached from any analyzer
    table.conditions = OperatingConditions(**payload["conditions"])
    table.grid = np.array(payload["grid"], dtype=float)
    table._splines = {
        name: PchipInterpolator(table.grid, np.array(values, dtype=float))
        for name, values in payload["log10_probability"].items()
    }
    table.diagnostics = (
        BatchDiagnostics.from_dict(payload["diagnostics"])
        if payload.get("diagnostics") is not None
        else None
    )
    return table

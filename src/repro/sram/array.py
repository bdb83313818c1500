"""Array organisation, redundancy, and the functional memory array.

:class:`ArrayOrganization` captures how a memory of a given capacity is
organised into rows and columns and how many *redundant* columns are
available for repair — the quantity the paper's yield equations and the
BIST calibration both revolve around.

:class:`FunctionalMemoryArray` is a behavioural memory whose faults come
from the same cell physics as the statistical analysis: every cell gets
its own RDF threshold-voltage sample, and read / write / retention
operations consult the static margins against the calibrated failure
criteria.  This is the device-under-test that the BIST engine
(:mod:`repro.core.source_bias`) exercises with March tests during
self-adaptive source-bias calibration.

Data-orientation convention: a stored ``1`` means node L holds '1' (the
configuration all the solver metrics are formulated for); a stored ``0``
is the mirrored configuration, evaluated by swapping the left/right
transistor roles of each cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # runtime use is duck-typed to avoid an import cycle
    from repro.failures.criteria import FailureCriteria

from repro.sram.cell import CellGeometry, SixTCell, sample_cell_dvt
from repro.sram.metrics import (
    OperatingConditions,
    compute_cell_metrics,
    compute_hold_margin,
)
from repro.technology.corners import ProcessCorner
from repro.technology.parameters import TechnologyParameters

#: Mapping that mirrors a cell left<->right (data-0 orientation).
_MIRROR = {
    "pl": "pr", "pr": "pl",
    "nl": "nr", "nr": "nl",
    "axl": "axr", "axr": "axl",
}


@dataclass(frozen=True)
class ArrayOrganization:
    """Rows x columns organisation with column redundancy.

    Attributes:
        rows: wordlines.
        columns: data columns.
        redundant_columns: spare columns available for repair.
    """

    rows: int
    columns: int
    redundant_columns: int

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.columns <= 0:
            raise ValueError("rows and columns must be positive")
        if self.redundant_columns < 0:
            raise ValueError("redundant_columns must be non-negative")

    @property
    def n_cells(self) -> int:
        """Data cells (excluding redundancy)."""
        return self.rows * self.columns

    @property
    def capacity_bytes(self) -> int:
        """Data capacity in bytes."""
        return self.n_cells // 8

    @classmethod
    def from_capacity(
        cls,
        capacity_bytes: int,
        rows: int = 256,
        redundancy_fraction: float = 0.05,
    ) -> "ArrayOrganization":
        """Organise ``capacity_bytes`` of storage into ``rows`` wordlines.

        ``redundancy_fraction`` is the paper's column-redundancy knob
        (5% in the ASB experiments).
        """
        n_cells = capacity_bytes * 8
        if n_cells % rows != 0:
            raise ValueError(
                f"{capacity_bytes} bytes does not divide into {rows} rows"
            )
        columns = n_cells // rows
        redundant = max(1, round(columns * redundancy_fraction))
        return cls(rows=rows, columns=columns, redundant_columns=redundant)

    def __str__(self) -> str:
        kb = self.capacity_bytes / 1024
        return (
            f"{kb:g}KB ({self.rows}x{self.columns} + "
            f"{self.redundant_columns} redundant cols)"
        )


def _mirrored(dvt: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Swap left/right transistor roles (data-0 orientation)."""
    return {name: dvt[_MIRROR[name]] for name in dvt}


class FunctionalMemoryArray:
    """A behavioural SRAM array with physics-derived faults.

    Construction samples an RDF threshold delta for all six transistors
    of every cell.  Static (bias-independent) fault classes — read
    disturb, write failure, access failure — are precomputed at the
    active operating point; retention (hold) faults are computed lazily
    per source-bias value and cached, because the BIST sweeps VSB.

    Fault semantics during operations:

    * *write failure*: the write does not change the stored bit;
    * *read disturb*: reading a cell flips its content (destructive
      read) and returns the flipped value;
    * *access failure*: the read returns the precharge value ``1``
      regardless of content (sense failure), content is preserved;
    * *retention failure* (at the current VSB): a standby dwell corrupts
      the stored bit to its complement.
    """

    def __init__(
        self,
        tech: TechnologyParameters,
        organization: ArrayOrganization,
        criteria: "FailureCriteria",
        geometry=None,
        corner: ProcessCorner | None = None,
        conditions: OperatingConditions | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.tech = tech
        self.organization = organization
        self.criteria = criteria
        self.geometry = geometry if geometry is not None else CellGeometry()
        self.corner = corner if corner is not None else ProcessCorner(0.0)
        self.conditions = (
            conditions if conditions is not None else OperatingConditions.nominal(tech)
        )
        rng = rng if rng is not None else np.random.default_rng(0)

        self.total_columns = organization.columns + organization.redundant_columns
        self.shape = (organization.rows, self.total_columns)
        n = organization.rows * self.total_columns
        self._dvt = sample_cell_dvt(tech, self.geometry, rng, n)
        self._cell_d1 = SixTCell(tech, self.geometry, self.corner, self._dvt)
        self._cell_d0 = SixTCell(
            tech, self.geometry, self.corner, _mirrored(self._dvt)
        )
        #: Stored data, shape (rows, total_columns).
        self.data = np.zeros(self.shape, dtype=bool)

        self._static_faults = self._compute_static_faults()
        self._retention_cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # Fault precomputation
    # ------------------------------------------------------------------
    def _compute_static_faults(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per-orientation static fault maps at the active corner/bias."""
        faults: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        per_orientation = []
        for cell in (self._cell_d1, self._cell_d0):
            metrics = compute_cell_metrics(cell, self.conditions)
            per_orientation.append(
                {
                    "read": self.criteria.read_fails(metrics).reshape(self.shape),
                    "write": self.criteria.write_fails(metrics).reshape(self.shape),
                    "access": self.criteria.access_fails(metrics).reshape(self.shape),
                }
            )
        for kind in ("read", "write", "access"):
            faults[kind] = (per_orientation[0][kind], per_orientation[1][kind])
        return faults

    def _fault_map(self, kind: str) -> np.ndarray:
        """Fault map of ``kind`` for the *currently stored* orientation."""
        for_d1, for_d0 = self._static_faults[kind]
        return np.where(self.data, for_d1, for_d0)

    def retention_fails(self, vsb: float) -> np.ndarray:
        """Boolean map: cell loses its current data at source bias ``vsb``."""
        key = round(float(vsb), 9)
        if key not in self._retention_cache:
            conditions = self.conditions.with_source_bias(float(vsb))
            rail = conditions.vdd_standby - conditions.vsb
            threshold = self.criteria.hold_fraction_min * rail
            margin_d1 = compute_hold_margin(self._cell_d1, conditions).reshape(
                self.shape
            )
            margin_d0 = compute_hold_margin(self._cell_d0, conditions).reshape(
                self.shape
            )
            self._retention_cache[key] = (
                margin_d1 < threshold,
                margin_d0 < threshold,
            )
        fail_d1, fail_d0 = self._retention_cache[key]
        return np.where(self.data, fail_d1, fail_d0)

    # ------------------------------------------------------------------
    # Behavioural operations (vectorised over the whole array)
    # ------------------------------------------------------------------
    def write_all(self, value: bool | np.ndarray) -> None:
        """Write ``value`` (scalar or full-shape array) to every cell.

        Cells with a write fault for the *target* orientation keep their
        old data.
        """
        target = np.broadcast_to(np.asarray(value, dtype=bool), self.shape)
        fail_d1, fail_d0 = self._static_faults["write"]
        write_fails = np.where(target, fail_d1, fail_d0)
        self.data = np.where(write_fails, self.data, target)

    def read_all(self) -> np.ndarray:
        """Read every cell, applying read-disturb and access faults.

        Returns the observed values (shape ``self.shape``); cell contents
        mutate where read disturbs strike.
        """
        disturbed = self._fault_map("read")
        observed = np.where(disturbed, ~self.data, self.data)
        self.data = np.where(disturbed, ~self.data, self.data)
        access_bad = self._fault_map("access")
        return np.where(access_bad, True, observed)

    def write_row(self, row: int, value: bool | np.ndarray) -> None:
        """Write one wordline; write-faulty cells keep their old data."""
        target = np.broadcast_to(
            np.asarray(value, dtype=bool), (self.total_columns,)
        )
        fail_d1, fail_d0 = self._static_faults["write"]
        write_fails = np.where(target, fail_d1[row], fail_d0[row])
        self.data[row] = np.where(write_fails, self.data[row], target)

    def read_row(self, row: int) -> np.ndarray:
        """Read one wordline with read-disturb and access faults applied."""
        disturbed_d1, disturbed_d0 = self._static_faults["read"]
        disturbed = np.where(self.data[row], disturbed_d1[row], disturbed_d0[row])
        self.data[row] = np.where(disturbed, ~self.data[row], self.data[row])
        observed = self.data[row].copy()
        access_d1, access_d0 = self._static_faults["access"]
        access_bad = np.where(observed, access_d1[row], access_d0[row])
        return np.where(access_bad, True, observed)

    def standby_dwell(self, vsb: float) -> None:
        """Enter standby at source bias ``vsb``: retention faults corrupt."""
        lost = self.retention_fails(vsb)
        self.data = np.where(lost, ~self.data, self.data)

    def column_of(self, flat_index: int) -> int:
        """Column index of a flat cell index (row-major layout)."""
        return flat_index % self.total_columns

"""6T SRAM cell and array models.

* :mod:`repro.sram.cell` — cell geometry, per-transistor variation
  samples, and device construction;
* :mod:`repro.sram.solver` — numpy-vectorised DC solvers for the cell's
  read / write / hold problems (the fast path that replaces per-sample
  SPICE runs);
* :mod:`repro.sram.metrics` — the paper's static failure metrics
  (V_READ vs V_TRIPRD, write margin, access current, hold retention);
* :mod:`repro.sram.leakage` — cell leakage decomposition
  (subthreshold / gate / junction) under body and source bias;
* :mod:`repro.sram.array` — array organisation, redundancy, and the
  functional memory array the BIST drives.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.sram.array": "ArrayOrganization FunctionalMemoryArray",
    "repro.sram.cell": "TRANSISTORS CellGeometry SixTCell sample_cell_dvt",
    "repro.sram.drv": "array_drv cell_drv safe_standby_voltage",
    "repro.sram.eight_t": "EightTCell EightTGeometry "
    "eight_t_failure_probabilities sample_eight_t",
    "repro.sram.leakage": "LeakageBreakdown cell_leakage",
    "repro.sram.metrics": "CellMetrics OperatingConditions compute_cell_metrics",
    "repro.sram.repair": "RepairPlan allocate_columns allocate_rows_and_columns",
    "repro.sram.snm": "butterfly_snm hold_snm read_snm",
    "repro.sram.timing": "BitlineModel access_time read_cycle_time",
})

__all__ = [
    "CellGeometry",
    "SixTCell",
    "TRANSISTORS",
    "sample_cell_dvt",
    "CellMetrics",
    "OperatingConditions",
    "compute_cell_metrics",
    "LeakageBreakdown",
    "cell_leakage",
    "ArrayOrganization",
    "FunctionalMemoryArray",
    "cell_drv",
    "array_drv",
    "safe_standby_voltage",
    "RepairPlan",
    "allocate_columns",
    "allocate_rows_and_columns",
    "EightTCell",
    "EightTGeometry",
    "sample_eight_t",
    "eight_t_failure_probabilities",
    "butterfly_snm",
    "hold_snm",
    "read_snm",
    "BitlineModel",
    "access_time",
    "read_cycle_time",
]

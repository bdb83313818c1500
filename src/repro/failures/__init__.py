"""Parametric failure analysis (the paper's Section II).

* :mod:`repro.failures.criteria` — the pass/fail thresholds on the static
  cell metrics, and their calibration so that the four mechanisms have
  equal probability at the nominal/ZBB point (the paper's stated cell
  sizing);
* :mod:`repro.failures.analysis` — Monte-Carlo (with sigma-scaled
  importance sampling) estimation of per-mechanism cell failure
  probabilities at any corner and bias;
* cell -> column -> memory failure probability with column redundancy,
  and parametric yield over the inter-die distribution (paper Eq. 1) on
  the dense integration grid — implemented in
  :mod:`repro.stats.yield_model` beside the leakage yield, and
  re-exported here.
"""

from repro.failures.analysis import CellFailureAnalyzer, FailureProbabilities
from repro.failures.criteria import FailureCriteria, calibrate_criteria
from repro.failures.mpfp import MpfpEstimator, MpfpResult
from repro.stats.yield_model import (
    column_failure_probability,
    memory_failure_probability,
    parametric_yield,
)

__all__ = [
    "FailureCriteria",
    "calibrate_criteria",
    "CellFailureAnalyzer",
    "FailureProbabilities",
    "column_failure_probability",
    "memory_failure_probability",
    "parametric_yield",
    "MpfpEstimator",
    "MpfpResult",
]

"""repro — reproduction of *Low-Power and Process Variation Tolerant
Memories in sub-90nm Technologies* (Mukhopadhyay, Ghosh, Kim, Roy;
IEEE SOCC 2006).

The library stacks up as:

* :mod:`repro.technology` / :mod:`repro.devices` — a predictive 70 nm
  technology card and an EKV-style compact MOSFET model with
  subthreshold / gate / junction leakage (the BPTM+HSPICE substitute);
* :mod:`repro.circuit` — a small MNA circuit simulator for
  cross-validation and ad-hoc circuits;
* :mod:`repro.sram` — the 6T cell, vectorised cell DC solvers, static
  failure metrics, leakage decomposition, and a behavioural memory
  array with physics-derived faults;
* :mod:`repro.failures` / :mod:`repro.stats` — RDF Monte Carlo with
  importance sampling, cell -> column -> memory yield with redundancy,
  CLT leakage statistics, inter-die quadrature;
* :mod:`repro.core` — **the paper's contribution**: the self-repairing
  SRAM (leakage monitor + adaptive body bias) and the self-adaptive
  source-bias calibration (BIST + March tests + counter/DAC);
* :mod:`repro.parallel` — deterministic process fan-out and the
  fingerprint-keyed disk cache behind every sweep (results are
  bit-identical at any worker count);
* :mod:`repro.observability` — structured logging, metrics counters
  and span-style trace timing behind one switch (off by default with a
  no-op fast path; ``-v`` / ``--metrics-out`` on the CLI);
* :mod:`repro.experiments` — one entry point per paper figure,
  regenerating every result of the evaluation.
"""

import importlib
import sys


def _lazy_exports(package: str, exports: dict[str, str]):
    """PEP 562 hooks for a package root: ``exports`` maps each module to
    its public names, each imported on first access and then bound."""
    origin = {n: m for m, names in exports.items() for n in names.split()}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = getattr(importlib.import_module(origin[name]), name)
        return namespace[name]

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin.keys())

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.core.body_bias": "BodyBiasGenerator SelfRepairingSRAM",
    "repro.core.lot": "LotReport LotSimulator",
    "repro.core.monitor": "LeakageMonitor",
    "repro.core.source_bias": "BISTController SelfAdaptiveSourceBias SourceBiasDAC",
    "repro.core.tuning": "PostSiliconTuner",
    "repro.failures.analysis": "CellFailureAnalyzer",
    "repro.failures.criteria": "FailureCriteria calibrate_criteria",
    "repro.failures.mpfp": "MpfpEstimator",
    "repro.parallel.cache": "ResultCache",
    "repro.parallel.executor": "ParallelExecutor",
    "repro.sram.array": "ArrayOrganization FunctionalMemoryArray",
    "repro.sram.cell": "CellGeometry SixTCell",
    "repro.sram.metrics": "OperatingConditions",
    "repro.technology.corners": "ProcessCorner",
    "repro.technology.parameters": "TechnologyParameters predictive_70nm",
    "repro.technology.variation": "InterDieDistribution",
})

__version__ = "0.1.0"

__all__ = [
    "predictive_70nm",
    "TechnologyParameters",
    "ProcessCorner",
    "InterDieDistribution",
    "CellGeometry",
    "SixTCell",
    "OperatingConditions",
    "ArrayOrganization",
    "FunctionalMemoryArray",
    "FailureCriteria",
    "calibrate_criteria",
    "CellFailureAnalyzer",
    "LeakageMonitor",
    "BodyBiasGenerator",
    "SelfRepairingSRAM",
    "SourceBiasDAC",
    "BISTController",
    "SelfAdaptiveSourceBias",
    "PostSiliconTuner",
    "LotSimulator",
    "LotReport",
    "MpfpEstimator",
    "ParallelExecutor",
    "ResultCache",
    "__version__",
]

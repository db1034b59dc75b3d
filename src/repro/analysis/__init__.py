"""Experiment analysis: trial statistics, distributions, tables and fits.

Trials and sweeps run through :mod:`repro.api`; this package summarises and
renders what they produce.

* :mod:`repro.analysis.trials` — :class:`TrialSummary`, the spread-time
  statistics behind :meth:`repro.api.TrialSet.summary`.
* :mod:`repro.analysis.tables` — render sweep results as plain-text tables /
  CSV, the format EXPERIMENTS.md and the benchmark harness print.
* :mod:`repro.analysis.regression` — log–log slope fits used to check growth
  exponents (Θ(n), Θ(log n), Θ(n²), ...).
"""

from repro.analysis.trials import TrialSummary
from repro.analysis.tables import format_table, to_csv
from repro.analysis.regression import loglog_slope, semilog_slope
from repro.analysis.distribution import (
    EmpiricalDistribution,
    mean_difference_z_score,
    theorem_1_7_iii_tail,
)

__all__ = [
    "TrialSummary",
    "format_table",
    "to_csv",
    "loglog_slope",
    "semilog_slope",
    "EmpiricalDistribution",
    "mean_difference_z_score",
    "theorem_1_7_iii_tail",
]

"""Statistical validation suite built from first principles on numpy."""

from volumetrica.stats.agreement import BlandAltman, bland_altman
from volumetrica.stats.resample import CVPlan, bootstrap_ci, cv_volume_error, kfold
from volumetrica.stats.roc import RocCurve, roc_auc
from volumetrica.stats.tests import (
    DegenerateDataError,
    TestResult,
    levene,
    one_way_anova,
    paired_t,
    shapiro_wilk,
    tukey_hsd,
)
from volumetrica.stats.report import build_stats_report

__all__ = [
    "BlandAltman",
    "CVPlan",
    "DegenerateDataError",
    "RocCurve",
    "TestResult",
    "bland_altman",
    "bootstrap_ci",
    "build_stats_report",
    "cv_volume_error",
    "kfold",
    "levene",
    "one_way_anova",
    "paired_t",
    "roc_auc",
    "shapiro_wilk",
    "tukey_hsd",
]

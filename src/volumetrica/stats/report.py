"""Assembly of the cohort-level statistical validation report.

The report mirrors the validation table of the comparison pipeline:
cross-validated ML deviation, spread and CI, per-method errors under
both error conventions, paired tests with Bonferroni correction, ANOVA
with Tukey contrasts, Bland-Altman agreement, and the normality and
variance checks.
"""

from __future__ import annotations

import numpy as np

from volumetrica.stats.agreement import bland_altman
from volumetrica.stats.resample import CVResult, bootstrap_ci
from volumetrica.stats.tests import (
    DegenerateDataError,
    levene,
    one_way_anova,
    paired_t,
    shapiro_wilk,
    tukey_hsd,
)

_MANUAL_METHODS = ("spherical", "area_based", "regression")
_METHOD_LABELS = {
    "ml": "Machine Learning",
    "spherical": "Spherical Method",
    "area_based": "Area-Based Method",
    "regression": "Nonlinear Regression",
}
BOOTSTRAP_RESAMPLES = 2000


def _row(metric: str, value, remark: str) -> dict:
    return {"metric": metric, "value": value, "remark": remark}


def build_stats_report(truth, volumes: dict, cv: CVResult, k: int, seed: int) -> dict:
    """Build the report rows from per-case volumes.

    ``volumes['ml']`` must hold the out-of-fold CV predictions; manual
    methods are per-case direct estimates. ``truth`` is the analytic
    ground truth per case.
    """
    truth = np.asarray(truth, dtype=np.float64)
    n = len(truth)
    vols = {m: np.asarray(v, dtype=np.float64) for m, v in volumes.items()}
    for m, v in vols.items():
        if v.shape != truth.shape:
            raise ValueError(f"method {m} has {v.shape} volumes for {n} cases")

    err_vs_truth = {m: np.abs(v - truth) / truth for m, v in vols.items()}
    ml = vols["ml"]

    rows: list[dict] = []
    rows.append(
        _row(
            f"Mean Volume Deviation ({k}-fold Cross Validation)",
            cv.mean_error * 100.0,
            "mean over folds of the held-out relative volume error, %",
        )
    )
    rows.append(
        _row(
            "Standard Deviation of Error",
            cv.sd_error * 100.0,
            "spread of the per-fold mean errors, %",
        )
    )
    lo, hi = bootstrap_ci(cv.per_case_error, resamples=BOOTSTRAP_RESAMPLES, seed=seed)
    rows.append(
        _row(
            "95% Confidence Interval for Error",
            [lo * 100.0, hi * 100.0],
            f"percentile bootstrap of the mean, {BOOTSTRAP_RESAMPLES} resamples, %",
        )
    )

    for m in _MANUAL_METHODS:
        ml_vs_m = float(np.mean(np.abs(ml - vols[m]) / vols[m])) * 100.0
        m_vs_truth = float(np.mean(err_vs_truth[m])) * 100.0
        rows.append(
            _row(
                f"Mean Error vs. {_METHOD_LABELS[m]}",
                ml_vs_m,
                f"ML deviation from the method, %; the method itself "
                f"deviates {m_vs_truth:.2f}% from ground truth",
            )
        )

    # paired tests on absolute errors, Bonferroni x3 capped at 1
    for m in _MANUAL_METHODS:
        try:
            t_res = paired_t(err_vs_truth["ml"], err_vs_truth[m])
            p_adj = min(1.0, t_res.p_value * len(_MANUAL_METHODS))
            value = p_adj
            remark = f"t = {t_res.statistic:.3f}, df = {t_res.df[0]:.0f}, Bonferroni x3"
        except DegenerateDataError:
            value, remark = None, "degenerate: zero difference variance"
        rows.append(_row(f"Paired t-test vs. {_METHOD_LABELS[m]}", value, remark))

    order = ["ml", "spherical", "area_based", "regression"]
    groups = [err_vs_truth[m] for m in order]
    anova = one_way_anova(groups)
    rows.append(
        _row(
            "ANOVA Test (F-statistic)",
            anova.statistic,
            f"F({anova.df[0]:.0f},{anova.df[1]:.0f}) on absolute errors, "
            f"p = {anova.p_value:.3g}",
        )
    )
    for (i, j), res in tukey_hsd(groups):
        rows.append(
            _row(
                f"Tukey HSD {_METHOD_LABELS[order[i]]} vs {_METHOD_LABELS[order[j]]}",
                res.p_value,
                f"q = {res.statistic:.3f}",
            )
        )

    ba = bland_altman(ml, vols["regression"])
    rows.append(
        _row("Bland-Altman Mean Bias", ba.bias, "ML vs nonlinear regression, mm^3")
    )
    rows.append(
        _row(
            "Limits of Agreement (B-A)",
            [ba.loa_lower, ba.loa_upper],
            "bias +/- 1.96 sd, mm^3",
        )
    )

    try:
        sw = shapiro_wilk(ba.differences)
        rows.append(
            _row(
                "Shapiro-Wilk Test (Residual Normality)",
                sw.p_value,
                f"W = {sw.statistic:.4f} on the agreement differences",
            )
        )
    except DegenerateDataError:
        rows.append(_row("Shapiro-Wilk Test (Residual Normality)", None, "degenerate input"))

    fold_groups = [cv.fold_errors(fold) for fold in range(len(cv.per_fold_mean))]
    try:
        lv = levene([g for g in fold_groups if len(g) >= 2])
        rows.append(
            _row(
                "Levene's Test for Equal Variances",
                lv.p_value,
                f"F = {lv.statistic:.4f} across fold error groups",
            )
        )
    except (DegenerateDataError, ValueError):
        rows.append(_row("Levene's Test for Equal Variances", None, "degenerate input"))

    return {
        "rows": rows,
        "details": {
            "n_cases": n,
            "k_folds": k,
            "seed": seed,
            "volumes": {m: v.tolist() for m, v in vols.items()},
            "truth": truth.tolist(),
            "error_vs_truth_pct": {
                m: (v * 100.0).tolist() for m, v in err_vs_truth.items()
            },
            "per_fold_mean_error_pct": (cv.per_fold_mean * 100.0).tolist(),
            "fold_of": cv.fold_of.tolist(),
        },
    }

"""Classical hypothesis tests computed from first principles."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from volumetrica.stats.special import (
    f_sf,
    normal_cdf,
    normal_quantile,
    studentized_range_cdf,
    t_two_sided,
)


class DegenerateDataError(ValueError):
    """Input has no variance where the test needs one."""


@dataclass(frozen=True)
class TestResult:
    name: str
    statistic: float
    p_value: float
    df: tuple[float, ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p-value {self.p_value} outside [0, 1]")


def paired_t(x, y) -> TestResult:
    """Two-sided paired t-test on the differences x - y."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be 1-D arrays of equal length")
    n = len(x)
    if n < 2:
        raise ValueError("need at least 2 pairs")
    d = x - y
    mean = d.mean()
    var = float(np.sum((d - mean) ** 2) / (n - 1))
    if var == 0.0:
        raise DegenerateDataError("paired differences have zero variance")
    t = float(mean / math.sqrt(var / n))
    return TestResult("paired t", t, t_two_sided(t, n - 1), (float(n - 1),))


def _group_arrays(groups) -> list[np.ndarray]:
    gs = [np.asarray(g, dtype=np.float64) for g in groups]
    if len(gs) < 2:
        raise ValueError("need at least 2 groups")
    if any(len(g) < 2 for g in gs):
        raise ValueError("every group needs at least 2 values")
    return gs


def one_way_anova(groups) -> TestResult:
    """Classical F test on k groups; F = 0 (p = 1) when the group means
    coincide exactly, degenerate error when only the within-variance
    vanishes."""
    gs = _group_arrays(groups)
    k = len(gs)
    n_total = sum(len(g) for g in gs)
    grand = sum(g.sum() for g in gs) / n_total
    ss_between = sum(len(g) * (g.mean() - grand) ** 2 for g in gs)
    ss_within = sum(float(np.sum((g - g.mean()) ** 2)) for g in gs)
    df1, df2 = float(k - 1), float(n_total - k)
    if ss_between == 0.0:
        return TestResult("one-way anova", 0.0, 1.0, (df1, df2))
    if ss_within == 0.0:
        raise DegenerateDataError("zero within-group variance with distinct means")
    f = float((ss_between / df1) / (ss_within / df2))
    return TestResult("one-way anova", f, f_sf(f, df1, df2), (df1, df2))


def tukey_hsd(groups) -> list[tuple[tuple[int, int], TestResult]]:
    """Tukey-Kramer pairwise contrasts after an ANOVA.

    Returns ((i, j), TestResult) per pair; p-values come from the
    studentized range distribution with the pooled within df.
    """
    gs = _group_arrays(groups)
    k = len(gs)
    n_total = sum(len(g) for g in gs)
    df_w = float(n_total - k)
    ss_within = sum(float(np.sum((g - g.mean()) ** 2)) for g in gs)
    if ss_within == 0.0:
        raise DegenerateDataError("zero within-group variance")
    msw = ss_within / df_w
    results = []
    for i in range(k):
        for j in range(i + 1, k):
            se = math.sqrt(msw / 2.0 * (1.0 / len(gs[i]) + 1.0 / len(gs[j])))
            q = abs(gs[i].mean() - gs[j].mean()) / se
            p = 1.0 - studentized_range_cdf(q, k, df_w)
            results.append(((i, j), TestResult(f"tukey ({i},{j})", float(q), p, (float(k), df_w))))
    return results


# Royston (1992/1995) polynomial coefficients for the W test
_SW_C1 = (0.0, 0.221157, -0.147981, -2.071190, 4.434685, -2.706056)
_SW_C2 = (0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633)
_SW_C3 = (0.5440, -0.39978, 0.025054, -6.714e-4)
_SW_C4 = (1.3822, -0.77857, 0.062767, -0.0020322)
_SW_C5 = (-1.5861, -0.31082, -0.083751, 0.0038915)
_SW_C6 = (-0.4803, -0.082676, 0.0030302)


def _poly(coeffs, x: float) -> float:
    return sum(c * x**i for i, c in enumerate(coeffs))


def shapiro_wilk(x) -> TestResult:
    """Shapiro-Wilk W with Royston's approximation for the weights and
    the p-value transform; valid for 3 <= n <= 5000."""
    x = np.sort(np.asarray(x, dtype=np.float64))
    n = len(x)
    if not 3 <= n <= 5000:
        raise ValueError(f"shapiro_wilk supports 3 <= n <= 5000, got {n}")
    if x[0] == x[-1]:
        raise DegenerateDataError("all values identical")

    m = np.array([normal_quantile((i - 0.375) / (n + 0.25)) for i in range(1, n + 1)])
    mm = float(m @ m)
    c = m / math.sqrt(mm)
    u = 1.0 / math.sqrt(n)
    a = np.empty(n)
    if n <= 5:
        a_n = c[-1] + _poly(_SW_C1, u)
        phi = (mm - 2.0 * m[-1] ** 2) / (1.0 - 2.0 * a_n**2)
        a[1:-1] = m[1:-1] / math.sqrt(phi)
        a[-1], a[0] = a_n, -a_n
    else:
        a_n = c[-1] + _poly(_SW_C1, u)
        a_n1 = c[-2] + _poly(_SW_C2, u)
        phi = (mm - 2.0 * m[-1] ** 2 - 2.0 * m[-2] ** 2) / (1.0 - 2.0 * a_n**2 - 2.0 * a_n1**2)
        a[2:-2] = m[2:-2] / math.sqrt(phi)
        a[-1], a[0] = a_n, -a_n
        a[-2], a[1] = a_n1, -a_n1

    w_num = float(a @ x) ** 2
    w_den = float(np.sum((x - x.mean()) ** 2))
    w = w_num / w_den

    if n == 3:
        p = 6.0 / math.pi * (math.asin(math.sqrt(w)) - math.asin(math.sqrt(0.75)))
        p = min(max(p, 0.0), 1.0)
        return TestResult("shapiro-wilk", w, p, (float(n),))
    if n <= 11:
        gamma = -2.273 + 0.459 * n
        if 1.0 - w >= math.exp(gamma):
            return TestResult("shapiro-wilk", w, 0.0, (float(n),))
        z_w = -math.log(gamma - math.log(1.0 - w))
        mu = _poly(_SW_C3, float(n))
        sigma = math.exp(_poly(_SW_C4, float(n)))
    else:
        ln_n = math.log(n)
        z_w = math.log(1.0 - w)
        mu = _poly(_SW_C5, ln_n)
        sigma = math.exp(_poly(_SW_C6, ln_n))
    z = (z_w - mu) / sigma
    return TestResult("shapiro-wilk", w, 1.0 - normal_cdf(z), (float(n),))


def levene(groups) -> TestResult:
    """Levene's test, median-centered (Brown-Forsythe): an ANOVA on the
    absolute deviations from the group medians."""
    gs = _group_arrays(groups)
    z = [np.abs(g - np.median(g)) for g in gs]
    if all(float(zg.max(initial=0.0)) == 0.0 for zg in z):
        raise DegenerateDataError("no spread in any group")
    result = one_way_anova(z)
    return TestResult("levene (median-centered)", result.statistic, result.p_value, result.df)

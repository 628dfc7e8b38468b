"""Scalar special functions shared by the test statistics.

The regularized incomplete beta (continued fractions, 1e-12 target) is
the kernel behind t and F p-values; the studentized range CDF is
evaluated by nested Gauss-Legendre quadrature.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT2PI


_erfc = np.frompyfunc(math.erfc, 1, 1)
_exp = np.frompyfunc(math.exp, 1, 1)


def _phi_vec(z: np.ndarray) -> np.ndarray:
    """``normal_cdf`` element-wise: the same float operations, in numpy
    around libm's erfc."""
    return 0.5 * _erfc(-z / _SQRT2).astype(np.float64)


def _pdf_vec(z: np.ndarray) -> np.ndarray:
    """``normal_pdf`` element-wise, likewise around libm's exp."""
    return _exp(-0.5 * z * z).astype(np.float64) / _SQRT2PI


# Acklam's rational approximation followed by one Halley step
_A = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
      1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
_B = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
      6.680131188771972e01, -1.328068155288572e01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
      -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
      3.754408661907416e00)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF, accurate to ~1e-13."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile argument must be in (0, 1), got {p}")
    p_low, p_high = 0.02425, 1.0 - 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
             / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    elif p <= p_high:
        q = p - 0.5
        r = q * q
        x = ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
             / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))
    else:
        q = math.sqrt(-2.0 * math.log1p(-p))
        x = -((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
              / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    # Halley refinement
    e = normal_cdf(x) - p
    u = e * _SQRT2PI * math.exp(0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-12:
            return h
    raise RuntimeError(f"incomplete beta continued fraction failed for a={a}, b={b}, x={x}")


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise ValueError("beta parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_bt = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def t_sf(t: float, df: float) -> float:
    """P(T > t) for Student's t."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    p_half = 0.5 * betainc(df / 2.0, 0.5, df / (df + t * t))
    return p_half if t >= 0 else 1.0 - p_half


def t_two_sided(t: float, df: float) -> float:
    return min(1.0, 2.0 * t_sf(abs(t), df))


def f_sf(f: float, d1: float, d2: float) -> float:
    """P(F > f) for the F distribution."""
    if d1 <= 0 or d2 <= 0:
        raise ValueError("degrees of freedom must be positive")
    if f <= 0:
        return 1.0
    return betainc(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * f))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _gl_panel(f, lo: float, hi: float) -> float:
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return half * float(np.sum(_GL_WEIGHTS * f(mid + half * _GL_NODES)))


def _range_cdf(x: float, k: int) -> float:
    """P(range of k iid standard normals <= x)."""
    if x <= 0:
        return 0.0

    def integrand(z):
        return k * _pdf_vec(z) * (_phi_vec(z) - _phi_vec(z - x)) ** (k - 1)

    # integrand lives where the max can sit: [-8, x + 8]
    lo, hi = -8.5, x + 8.5
    total = 0.0
    n_panels = max(1, int(math.ceil((hi - lo) / 12.0)))
    edges = np.linspace(lo, hi, n_panels + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        total += _gl_panel(integrand, a, b)
    return min(total, 1.0)


def studentized_range_cdf(q: float, k: int, df: float) -> float:
    """P(Q <= q) for the studentized range with k groups and df error
    degrees of freedom; two-level 64-node Gauss-Legendre."""
    if k < 2:
        raise ValueError("studentized range needs k >= 2")
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if q <= 0:
        return 0.0

    half_df = df / 2.0
    ln_norm = half_df * math.log(df) - math.lgamma(half_df) - (half_df - 1.0) * math.log(2.0)

    def chi_density(s):
        # density of S = sqrt(chi2_df / df)
        return np.exp(ln_norm + (df - 1.0) * np.log(s) - df * s * s / 2.0)

    def outer(s_vals):
        return chi_density(s_vals) * np.array([_range_cdf(q * s, k) for s in s_vals])

    spread = 12.0 / math.sqrt(2.0 * df)
    lo = max(1e-9, 1.0 - spread)
    hi = 1.0 + spread
    total = 0.0
    width = (hi - lo) / max(1, int(math.ceil((hi - lo) / 0.75)))
    edges = np.arange(lo, hi + width / 2, width)
    for a, b in zip(edges[:-1], edges[1:]):
        total += _gl_panel(outer, a, b)
    return min(max(total, 0.0), 1.0)

"""Numerical kernels: polynomial fitting with degree selection, exact
polynomial integration, and a damped Gauss-Newton (Levenberg-Marquardt)
solver for nonlinear least squares."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from volumetrica.geometry import SliceAreaSeries


class FitError(ValueError):
    """Fit cannot be computed on the given data."""


class LMError(RuntimeError):
    """Levenberg-Marquardt iteration failed."""


@dataclass(frozen=True)
class Polynomial:
    """Coefficients a0..an in the original (unscaled) variable."""

    coefficients: np.ndarray
    fit_domain: tuple[float, float]

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coefficients, dtype=np.float64))
        if not np.all(np.isfinite(c)):
            raise ValueError("polynomial coefficients must be finite")
        c = c.view()
        c.flags.writeable = False
        object.__setattr__(self, "coefficients", c)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(x, self.coefficients)


@dataclass(frozen=True)
class FitResult:
    polynomial: Polynomial
    mse: float
    condition_flag: bool

    def to_dict(self) -> dict:
        return {
            "degree": self.polynomial.degree,
            "coefficients": [float(c) for c in self.polynomial.coefficients],
            "mse": self.mse,
            "domain": list(self.polynomial.fit_domain),
            "condition_flag": self.condition_flag,
        }


def _as_xy(points) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(points, SliceAreaSeries):
        return points.positions, points.areas
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 2 and pts.shape[1] == 2:
        return pts[:, 0], pts[:, 1]
    if isinstance(points, tuple) and len(points) == 2:
        return (
            np.asarray(points[0], dtype=np.float64),
            np.asarray(points[1], dtype=np.float64),
        )
    raise ValueError("points must be an (n, 2) array, an (x, y) pair, or a series")


def polyfit(points, degree: int) -> FitResult:
    """Least-squares polynomial fit on a centered/scaled basis.

    The fit is solved on u = (x - mid)/halfwidth to keep high degrees
    well conditioned, then the coefficients are mapped back to the
    original variable. ``mse`` is the mean squared residual at the data.
    """
    x, y = _as_xy(points)
    n = len(x)
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if n < degree + 1:
        raise FitError(f"need at least {degree + 1} points for degree {degree}, got {n}")
    if len(np.unique(x)) != n:
        raise FitError("x values must be distinct")

    mid = 0.5 * (x.max() + x.min())
    half = 0.5 * (x.max() - x.min())
    if half == 0.0:
        raise FitError("x values must be distinct")
    u = (x - mid) / half
    V = np.vander(u, degree + 1, increasing=True)
    coeffs_u, _, rank, sv = np.linalg.lstsq(V, y, rcond=None)
    resid = y - V @ coeffs_u
    mse = float(np.mean(resid**2))
    cond = float(sv.max() / sv.min()) if sv.min() > 0 else math.inf
    flagged = rank < degree + 1 or cond > 1e8

    # expand sum c_k u^k with u = (x - mid)/half into monomials of x
    shift = np.array([-mid / half, 1.0 / half])
    coeffs_x = np.zeros(1)
    upow = np.array([1.0])
    for ck in coeffs_u:
        coeffs_x = np.polynomial.polynomial.polyadd(coeffs_x, ck * upow)
        upow = np.polynomial.polynomial.polymul(upow, shift)
    if len(coeffs_x) < degree + 1:
        coeffs_x = np.pad(coeffs_x, (0, degree + 1 - len(coeffs_x)))

    poly = Polynomial(coeffs_x, (float(x.min()), float(x.max())))
    return FitResult(poly, mse, flagged)


def select_degree(points, d_min: int = 2, d_max: int = 10) -> FitResult:
    """Fit every degree in [d_min, min(d_max, count-1)] and keep the
    minimum-mse fit; ties (within 1e-12) go to the lower degree."""
    x, y = _as_xy(points)
    n = len(x)
    if n < d_min + 1:
        raise FitError(f"need at least {d_min + 1} points, got {n}")
    d_hi = min(d_max, n - 1)
    best: FitResult | None = None
    for d in range(d_min, d_hi + 1):
        fit = polyfit((x, y), d)
        if best is None or fit.mse < best.mse - 1e-12 * max(1.0, best.mse):
            best = fit
    return best


def poly_integral(p: Polynomial, a: float, b: float) -> float:
    """Exact integral of p over [a, b] via the antiderivative."""
    if a > b:
        raise ValueError(f"need a <= b, got {a} > {b}")
    k = np.arange(len(p.coefficients), dtype=np.float64)
    return float(np.sum(p.coefficients * (b ** (k + 1) - a ** (k + 1)) / (k + 1)))


@dataclass(frozen=True)
class LMConfig:
    """Classical Marquardt schedule.

    ``residual_tol`` serves twice: as the absolute tolerance on the
    residual norm and as the relative-progress tolerance on ||r||^2
    after an accepted step (no further reduction worth taking).
    """

    lambda0: float = 1e-3
    lambda_increase: float = 10.0
    lambda_decrease: float = 0.1
    max_iter: int = 200
    residual_tol: float = 1e-10
    step_tol: float = 1e-10

    def __post_init__(self):
        if not self.lambda_increase > 1:
            raise ValueError("lambda_increase must be > 1")
        if not 0 < self.lambda_decrease < 1:
            raise ValueError("lambda_decrease must be in (0, 1)")
        if self.residual_tol <= 0 or self.step_tol <= 0:
            raise ValueError("tolerances must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class LMDiagnostics:
    iterations: int = 0
    accepted_steps: int = 0
    final_norm: float = math.nan
    converged: bool = False
    reason: str = ""
    residual_norms: list[float] = field(default_factory=list)


_LAMBDA_CAP = 1e12


def levenberg_marquardt(
    residuals, jacobian, theta0, config: LMConfig | None = None
) -> tuple[np.ndarray, LMDiagnostics]:
    """Damped Gauss-Newton iteration for min ||r(theta)||^2.

    The damping factor drops after each accepted step and grows on
    rejected ones; accepted steps never increase the residual norm.
    """
    cfg = config or LMConfig()
    theta = np.asarray(theta0, dtype=np.float64).copy()
    r = np.asarray(residuals(theta), dtype=np.float64)
    if not np.all(np.isfinite(r)):
        raise LMError("non-finite residuals at the starting point")
    sq = float(r @ r)
    diag = LMDiagnostics(residual_norms=[math.sqrt(sq)])
    lam = cfg.lambda0

    if math.sqrt(sq) <= cfg.residual_tol:
        diag.converged, diag.reason = True, "residual tolerance at start"
        diag.final_norm = math.sqrt(sq)
        return theta, diag

    eye = np.eye(len(theta))
    for _ in range(cfg.max_iter):
        diag.iterations += 1
        J = np.asarray(jacobian(theta), dtype=np.float64)
        if J.shape != (len(r), len(theta)):
            raise LMError(f"jacobian shape {J.shape} inconsistent with residuals")
        g = J.T @ r
        A = J.T @ J
        moved = False
        while True:
            try:
                delta = np.linalg.solve(A + lam * eye, g)
            except np.linalg.LinAlgError:
                lam *= cfg.lambda_increase
                if lam > _LAMBDA_CAP:
                    raise LMError("singular damped normal matrix after lambda escalation")
                continue
            if float(np.linalg.norm(delta)) <= cfg.step_tol * (
                float(np.linalg.norm(theta)) + cfg.step_tol
            ):
                diag.converged, diag.reason = True, "step tolerance"
                diag.final_norm = math.sqrt(sq)
                return theta, diag
            cand = theta - delta
            r_new = np.asarray(residuals(cand), dtype=np.float64)
            sq_new = float(r_new @ r_new) if np.all(np.isfinite(r_new)) else math.inf
            if sq_new < sq:
                rel_drop = (sq - sq_new) / max(sq, 1e-300)
                theta, r, sq = cand, r_new, sq_new
                lam = max(lam * cfg.lambda_decrease, 1e-15)
                diag.accepted_steps += 1
                diag.residual_norms.append(math.sqrt(sq))
                moved = True
                if math.sqrt(sq) <= cfg.residual_tol:
                    diag.converged, diag.reason = True, "residual tolerance"
                    diag.final_norm = math.sqrt(sq)
                    return theta, diag
                if rel_drop < cfg.residual_tol:
                    diag.converged, diag.reason = True, "no further reduction"
                    diag.final_norm = math.sqrt(sq)
                    return theta, diag
                break
            lam *= cfg.lambda_increase
            if lam > _LAMBDA_CAP:
                # no step improves the residual: numerically at a minimum
                diag.converged, diag.reason = True, "lambda cap without improvement"
                diag.final_norm = math.sqrt(sq)
                return theta, diag
        if not moved:  # pragma: no cover - defensive
            break

    diag.final_norm = math.sqrt(sq)
    diag.reason = "max iterations"
    return theta, diag


def ellipsoid_slice_profile(positions: np.ndarray, theta) -> np.ndarray:
    """Cross-sectional area of an axis-aligned ellipsoid along z.

    A(x; a, b, c, z0) = pi*a*b * max(0, 1 - ((x - z0)/c)^2).
    """
    a, b, c, z0 = theta
    g = 1.0 - ((positions - z0) / c) ** 2
    return math.pi * a * b * np.maximum(g, 0.0)


def _ellipsoid_profile_jacobian(positions: np.ndarray, theta) -> np.ndarray:
    a, b, c, z0 = theta
    t = (positions - z0) / c
    g = 1.0 - t**2
    active = g > 0
    J = np.zeros((len(positions), 4))
    J[active, 0] = math.pi * b * g[active]
    J[active, 1] = math.pi * a * g[active]
    J[active, 2] = math.pi * a * b * 2.0 * t[active] ** 2 / c
    J[active, 3] = math.pi * a * b * 2.0 * t[active] / c
    return J


def refine_volume(
    cnn_areas: SliceAreaSeries,
    theta0=None,
    config: LMConfig | None = None,
) -> float:
    """Fit the ellipsoid slice-profile to measured areas and return the
    model's analytic volume 4/3*pi*a*b*c."""
    if len(cnn_areas) == 0 or not np.any(cnn_areas.areas > 0):
        raise FitError("cannot refine an all-zero area series")
    x, y = cnn_areas.positions, cnn_areas.areas
    if theta0 is None:
        i_max = int(np.argmax(y))
        r0 = math.sqrt(float(y[i_max]) / math.pi)
        pos = x[y > 0]
        halfspan = max(0.5 * (pos[-1] - pos[0]), cnn_areas.thickness)
        theta0 = np.array([r0, r0, 1.2 * halfspan, float(x[i_max])])

    theta, diag = levenberg_marquardt(
        lambda th: ellipsoid_slice_profile(x, th) - y,
        lambda th: _ellipsoid_profile_jacobian(x, th),
        theta0,
        config,
    )
    if not diag.converged:
        raise LMError(f"profile fit did not converge: {diag.reason}")
    a, b, c, _ = theta
    return float(4.0 / 3.0 * math.pi * abs(a * b * c))

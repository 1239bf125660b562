"""Mono-exponential decay model: forward evaluation, LLS and IRLS fitting.

The data model is S_i = S0 * exp(-b_i * ADC).  Fitting happens in the log
domain, where the model is linear with design matrix rows (1, -b_i) and
unknowns (log S0, ADC).  The per-voxel solve uses the closed 2x2 form of the
normal equations; this is the hot path, so no general linear algebra is
involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volume import BValueSeries, RoiMask, ScalarVolume

FLOOR_EPS = 1e-6  # signals are floored here before the log
IRLS_RESIDUAL_FLOOR = 1e-4  # residual magnitude floor in the weight update
IRLS_MAX_ITER = 50  # weighted solves per IRLS fit, the first (plain LLS) included
IRLS_TOL = 1e-6  # relative ADC change at which IRLS stops


class DegenerateDesignError(ValueError):
    """All b-values equal: the normal matrix is singular."""


class UndefinedRSquaredError(ValueError):
    """R^2 is undefined when the observations have zero variance."""


@dataclass(frozen=True, eq=False)
class ParameterMaps:
    """Per-voxel fit results: log S0 (log signal units) and ADC (mm^2/s)."""

    log_s0: ScalarVolume
    adc: ScalarVolume

    def __post_init__(self):
        if self.log_s0.dims != self.adc.dims:
            raise ValueError("log_s0 and adc dims differ")

    @property
    def dims(self) -> tuple:
        return self.log_s0.dims


@dataclass(frozen=True, eq=False)
class FitDiagnostics:
    """Goodness-of-fit record for one decay curve."""

    r2: float
    residuals: np.ndarray  # log-domain, per b-value
    weights: np.ndarray | None = None  # IRLS only
    iterations: int = 1


def forward_signal(s0, adc, b):
    """Model signal S0 * exp(-b * ADC); broadcasts over array inputs."""
    return s0 * np.exp(-np.asarray(b, dtype=np.float64) * adc)


def _weighted_log_linear_solve(b, y, w=None):
    """Closed-form weighted LLS of y ~ log S0 - b * ADC.

    b: (B,) b-values; y: (B, ...) log signals; w: (B, ...) weights or None.
    Returns (log_s0, adc) arrays of shape y.shape[1:].
    """
    b = b.reshape((-1,) + (1,) * (y.ndim - 1))
    if w is None:
        w = np.ones_like(y)
    sw = w.sum(axis=0)
    sb = (w * b).sum(axis=0)
    sbb = (w * b * b).sum(axis=0)
    sy = (w * y).sum(axis=0)
    sby = (w * b * y).sum(axis=0)
    det = sw * sbb - sb * sb
    if np.any(det <= 0) or not np.all(np.isfinite(det)):
        raise DegenerateDesignError("degenerate design: b-values carry no spread")
    log_s0 = (sbb * sy - sb * sby) / det
    adc = (sb * sy - sw * sby) / det
    return log_s0, adc


def _floored_log(signals):
    return np.log(np.maximum(signals, FLOOR_EPS))


def lls_fit(series: BValueSeries) -> ParameterMaps:
    """Per-voxel linear least-squares fit in the log domain.

    Signals are floored at FLOOR_EPS before the log so zeros at high b
    cannot produce infinities.  ADC is left unclamped; negative estimates
    are reported as-is.
    """
    b = np.asarray(series.bvalues, dtype=np.float64)
    y = _floored_log(series.stack())
    log_s0, adc = _weighted_log_linear_solve(b, y)
    spacing = series.volumes[0].spacing
    return ParameterMaps(ScalarVolume(log_s0, spacing), ScalarVolume(adc, spacing))


def lls_fit_curve(signals, bvalues):
    """Plain LLS fit of a single decay curve; returns (log_s0, adc, r2)."""
    b = np.asarray(bvalues, dtype=np.float64)
    y = _floored_log(np.asarray(signals, dtype=np.float64))
    log_s0, adc = _weighted_log_linear_solve(b, y)
    return float(log_s0), float(adc), r_squared(y, log_s0 - b * adc)


def irls_fit(signals, bvalues):
    """Robust fit of one decay curve by iteratively reweighted least squares.

    Starts from unit weights (plain LLS) and re-weights each measurement by
    the inverse of its absolute log-domain residual, floored at 1e-4, which
    drives the solution toward the least-absolute-deviations line and
    down-weights outliers.  Stops when the relative ADC change is <= IRLS_TOL
    or after IRLS_MAX_ITER solves.

    Returns (log_s0, adc, FitDiagnostics); diagnostics carry the final
    weights, log-domain residuals, iteration count, and the R^2 of the fit
    against the unweighted mean.
    """
    b = np.asarray(bvalues, dtype=np.float64)
    s = np.asarray(signals, dtype=np.float64)
    if b.shape != s.shape or b.ndim != 1 or b.size < 2:
        raise ValueError("need matching 1-d signals and bvalues with B >= 2")
    y = _floored_log(s)
    w = np.ones_like(y)
    log_s0, adc = _weighted_log_linear_solve(b, y, w)
    iterations = 1
    for _ in range(IRLS_MAX_ITER - 1):
        resid = (log_s0 - b * adc) - y
        w = 1.0 / np.maximum(np.abs(resid), IRLS_RESIDUAL_FLOOR)
        new_log_s0, new_adc = _weighted_log_linear_solve(b, y, w)
        iterations += 1
        change_ok = abs(new_adc - adc) <= IRLS_TOL * max(abs(adc), np.finfo(float).tiny)
        log_s0, adc = new_log_s0, new_adc
        if change_ok:
            break
    resid = (log_s0 - b * adc) - y
    w = 1.0 / np.maximum(np.abs(resid), IRLS_RESIDUAL_FLOOR)
    diag = FitDiagnostics(
        r2=r_squared(y, log_s0 - b * adc),
        residuals=resid,
        weights=w,
        iterations=iterations,
    )
    return float(log_s0), float(adc), diag


def irls_fit_volume(series: BValueSeries):
    """Vectorized IRLS over every voxel of a series.

    Same iteration as `irls_fit`, run on all voxels at once until every
    voxel satisfies the relative ADC tolerance (or IRLS_MAX_ITER).  Returns
    (ParameterMaps, r2 map as ScalarVolume).
    """
    b = np.asarray(series.bvalues, dtype=np.float64)
    y = _floored_log(series.stack())
    log_s0, adc = _weighted_log_linear_solve(b, y)
    bcol = b.reshape((-1, 1, 1, 1))
    for _ in range(IRLS_MAX_ITER - 1):
        resid = (log_s0[None] - bcol * adc[None]) - y
        w = 1.0 / np.maximum(np.abs(resid), IRLS_RESIDUAL_FLOOR)
        new_log_s0, new_adc = _weighted_log_linear_solve(b, y, w)
        tol = IRLS_TOL * np.maximum(np.abs(adc), np.finfo(float).tiny)
        done = np.all(np.abs(new_adc - adc) <= tol)
        log_s0, adc = new_log_s0, new_adc
        if done:
            break
    pred = log_s0[None] - bcol * adc[None]
    ss_res = ((y - pred) ** 2).sum(axis=0)
    ymean = y.mean(axis=0)
    ss_tot = ((y - ymean[None]) ** 2).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(ss_tot > 0, 1.0 - ss_res / ss_tot, 0.0)
    spacing = series.volumes[0].spacing
    maps = ParameterMaps(ScalarVolume(log_s0, spacing), ScalarVolume(adc, spacing))
    return maps, ScalarVolume(r2, spacing)


def reconstruct(maps: ParameterMaps, bvalues) -> BValueSeries:
    """Model-generated series R_i = exp(log_s0) * exp(-b_i * adc), voxel-wise."""
    log_s0 = maps.log_s0.data
    adc = maps.adc.data
    spacing = maps.log_s0.spacing
    s0 = np.exp(log_s0)
    vols = tuple(
        ScalarVolume(s0 * np.exp(-float(b) * adc), spacing) for b in bvalues
    )
    return BValueSeries(tuple(float(b) for b in bvalues), vols)


def r_squared(observed_log, predicted_log) -> float:
    """Coefficient of determination in the log-signal domain."""
    obs = np.asarray(observed_log, dtype=np.float64).ravel()
    pred = np.asarray(predicted_log, dtype=np.float64).ravel()
    if obs.shape != pred.shape or obs.size < 2:
        raise ValueError("need equal-length inputs with >= 2 samples")
    ss_tot = float(((obs - obs.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise UndefinedRSquaredError("undefined R^2: observations have zero variance")
    ss_res = float(((obs - pred) ** 2).sum())
    return 1.0 - ss_res / ss_tot


def roi_mean_signals(series: BValueSeries, roi: RoiMask) -> np.ndarray:
    """Mean signal inside the ROI, one value per b-value."""
    if roi.dims != series.dims:
        raise ValueError("roi dims must match series dims")
    if roi.count == 0:
        raise ValueError("empty ROI")
    mask = roi.data
    return np.array([float(v.data[mask].mean()) for v in series.volumes])

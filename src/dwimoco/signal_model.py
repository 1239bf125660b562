"""Mono-exponential decay model: forward evaluation, LLS and IRLS fitting.

The data model is S_i = S0 * exp(-b_i * ADC).  Fitting happens in the log
domain, where the model is linear with design matrix rows (1, -b_i) and
unknowns (log S0, ADC).  The per-voxel solve uses the closed 2x2 form of the
normal equations; this is the hot path, so no general linear algebra is
involved.

The robust fit is one IRLS loop, `_irls`, over the leading b-value axis:
`irls_fit` runs it on a (B,) curve, `irls_fit_volume` on a (B, nx, ny, nz) stack.
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
    weights: np.ndarray  # final IRLS weights, per b-value
    iterations: int


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


def floored_log(signals):
    """log(max(signals, FLOOR_EPS)): the log domain every fit and loss works in."""
    return np.log(np.maximum(signals, FLOOR_EPS))


def lls_fit(series: BValueSeries) -> ParameterMaps:
    """Per-voxel linear least-squares fit in the log domain.

    Signals are floored at FLOOR_EPS before the log so zeros at high b
    cannot produce infinities.  ADC is left unclamped; negative estimates
    are reported as-is.
    """
    b = np.asarray(series.bvalues, dtype=np.float64)
    y = floored_log(series.stack())
    log_s0, adc = _weighted_log_linear_solve(b, y)
    spacing = series.volumes[0].spacing
    return ParameterMaps(ScalarVolume(log_s0, spacing), ScalarVolume(adc, spacing))


def lls_fit_curve(signals, bvalues):
    """Plain LLS fit of a single decay curve; returns (log_s0, adc, r2)."""
    b = np.asarray(bvalues, dtype=np.float64)
    y = floored_log(np.asarray(signals, dtype=np.float64))
    log_s0, adc = _weighted_log_linear_solve(b, y)
    return float(log_s0), float(adc), r_squared(y, log_s0 - b * adc)


def _irls(b, y):
    """IRLS fit of b: (B,) b-values to y: (B, ...) floored log signals.

    Starts from plain LLS and re-weights each measurement by the inverse of
    its absolute log residual, floored at IRLS_RESIDUAL_FLOOR, which pulls
    every curve toward its least-absolute-deviations line.  Stops once every
    curve's relative ADC change is <= IRLS_TOL, or after IRLS_MAX_ITER
    solves.  Returns (log_s0, adc, residuals, weights, iterations); the
    residuals (model minus data) and weights, shaped like y, are final.
    """
    bcol = b.reshape((-1,) + (1,) * (y.ndim - 1))
    log_s0, adc = _weighted_log_linear_solve(b, y)
    iterations = 1
    done = False
    while True:
        resid = (log_s0 - bcol * adc) - y
        w = 1.0 / np.maximum(np.abs(resid), IRLS_RESIDUAL_FLOOR)
        if done or iterations == IRLS_MAX_ITER:
            return log_s0, adc, resid, w, iterations
        new_log_s0, new_adc = _weighted_log_linear_solve(b, y, w)
        iterations += 1
        tol = IRLS_TOL * np.maximum(np.abs(adc), np.finfo(float).tiny)
        done = bool(np.all(np.abs(new_adc - adc) <= tol))
        log_s0, adc = new_log_s0, new_adc


def irls_fit(signals, bvalues):
    """Robust fit of one decay curve by iteratively reweighted least squares.

    Runs `_irls` on the curve.  Returns (log_s0, adc, FitDiagnostics);
    diagnostics carry the final weights, log-domain residuals, iteration
    count, and the R^2 of the fit against the unweighted mean.
    """
    b = np.asarray(bvalues, dtype=np.float64)
    s = np.asarray(signals, dtype=np.float64)
    if b.shape != s.shape or b.ndim != 1 or b.size < 2:
        raise ValueError("need matching 1-d signals and bvalues with B >= 2")
    y = floored_log(s)
    log_s0, adc, resid, w, iterations = _irls(b, y)
    diag = FitDiagnostics(
        r2=r_squared(y, log_s0 - b * adc),
        residuals=resid,
        weights=w,
        iterations=iterations,
    )
    return float(log_s0), float(adc), diag


def irls_fit_volume(series: BValueSeries):
    """`_irls` on every voxel at once, until all meet the tolerance.

    Returns (ParameterMaps, r2 map as ScalarVolume); a voxel whose log
    signals have zero variance gets R^2 = 0.
    """
    b = np.asarray(series.bvalues, dtype=np.float64)
    y = floored_log(series.stack())
    log_s0, adc, resid, _w, _iterations = _irls(b, y)
    ss_res = (resid**2).sum(axis=0)
    ymean = y.mean(axis=0)
    ss_tot = ((y - ymean[None]) ** 2).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(ss_tot > 0, 1.0 - ss_res / ss_tot, 0.0)
    spacing = series.volumes[0].spacing
    maps = ParameterMaps(ScalarVolume(log_s0, spacing), ScalarVolume(adc, spacing))
    return maps, ScalarVolume(r2, spacing)


def reconstruct(maps: ParameterMaps, bvalues) -> BValueSeries:
    """Model-generated series R_i = exp(log_s0) * exp(-b_i * adc), voxel-wise."""
    s0 = np.exp(maps.log_s0.data)
    spacing = maps.log_s0.spacing
    vols = tuple(ScalarVolume(forward_signal(s0, maps.adc.data, b), spacing) for b in bvalues)
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

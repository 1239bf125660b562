"""Mono-exponential decay model: forward evaluation, LLS and IRLS fitting.

The data model is S_i = S0 * exp(-b_i * ADC).  Fitting happens in the log
domain, where the model is linear with design matrix rows (1, -b_i) and
unknowns (log S0, ADC).  The per-voxel solve uses the closed 2x2 form of the
normal equations; this is the hot path, so no general linear algebra is
involved.

Every fit goes through one block-wise solve, `_weighted_log_linear_solve`,
on log signals flattened to (B, N): `lls_fit` and `irls_fit_volume` pass a
whole stack, `lls_fit_curve` and `irls_fit` one curve as N = 1.
`_kernels.fan_out_ranges` gives each thread one contiguous range of voxels
(a stack too small to pay for a thread stays on the calling one), which the
thread cuts into blocks of at most FIT_BLOCK voxels.  For each block it
computes the residuals of the current fit, the IRLS weights and the new fit
in turn, so the block's arrays stay in cache through all of it, where a
solve over the whole stack sent a dozen full-size temporaries through
memory.

The robust fit is one IRLS loop, `_irls`, one block-wise solve per
iteration.  Its stop is global, as in a loop over the whole stack: every
voxel is solved again until all of them meet IRLS_TOL at once, or
IRLS_MAX_ITER solves have run.  Every voxel sees the same operations in
the same order whatever the blocks and threads, so the fit keeps its bits
at every thread budget.  On the 96x96x16 phantoms (6 b-values, noise
0.02) the stop is the cap: all 50 solves run, with 32k-34k of 147,456
voxels still outside the tolerance at the last one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .volume import BValueSeries, RoiMask, ScalarVolume

FLOOR_EPS = 1e-6  # signals are floored here before the log
IRLS_RESIDUAL_FLOOR = 1e-4  # residual magnitude floor in the weight update
IRLS_MAX_ITER = 50  # weighted solves per IRLS fit, the first (plain LLS) included
IRLS_TOL = 1e-6  # relative ADC change at which IRLS stops
# Voxels per block of a fit.  A block's log signals and its 2 scratch arrays
# take 768 KiB each at 6 b-values.  Of 8192-24576, 16384 was the fastest on
# 2 threads of a 2-core x86 host (2 MiB L2 per core), where smaller blocks
# make more numpy calls and so more interpreter-lock handoffs; on 1 thread
# 8192 was up to 10% faster.
FIT_BLOCK = 16384
_TINY = np.finfo(float).tiny


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


def forward_signal(s0, adc, b):
    """Model signal S0 * exp(-b * ADC); broadcasts over array inputs."""
    return s0 * np.exp(-np.asarray(b, dtype=np.float64) * adc)


def _residuals(b, y, log_s0, adc, out=None):
    """(log_s0 - b * adc) - y: model minus data, per b-value row of y (B, n)."""
    resid = np.multiply(b[:, None], adc, out=out)
    np.subtract(log_s0, resid, out=resid)
    resid -= y
    return resid


def _irls_weights(resid, out=None):
    """1 / max(|resid|, IRLS_RESIDUAL_FLOOR), the IRLS weight of each residual."""
    w = np.abs(resid, out=out)
    np.maximum(w, IRLS_RESIDUAL_FLOOR, out=w)
    return np.divide(1.0, w, out=w)


def _solve_block(b, y, log_s0, adc, weighted, scratch):
    """One closed-form LLS of y ~ log S0 - b * ADC on a block, in place.

    b: (B,) b-values; y: (B, n) log signals; log_s0, adc: (n,) views of the
    fit, overwritten with the new one.  With `weighted`, each measurement
    is weighted by `_irls_weights` of the residual of the current fit,
    otherwise by 1.  scratch: (2, B, m) with m >= n.  Returns True iff
    `weighted` and every voxel's ADC moved by at most IRLS_TOL relative to
    the old one.
    """
    w, t = scratch[:, :, : y.shape[1]]
    if weighted:
        _irls_weights(_residuals(b, y, log_s0, adc, out=w), out=w)
    else:
        w.fill(1.0)
    bcol = b[:, None]
    sw = w.sum(axis=0)
    sy = np.multiply(w, y, out=t).sum(axis=0)
    w *= bcol  # w * b from here on
    sb = w.sum(axis=0)
    sbb = np.multiply(w, bcol, out=t).sum(axis=0)
    sby = np.multiply(w, y, out=t).sum(axis=0)
    det = sw * sbb - sb * sb
    # array methods, not np.all: this runs once per iteration of every
    # 1-voxel curve fit, where the function wrappers cost more than the math
    if not ((det > 0).all() and np.isfinite(det).all()):
        raise DegenerateDesignError("degenerate design: b-values carry no spread")
    new_adc = (sb * sy - sw * sby) / det
    log_s0[:] = (sbb * sy - sb * sby) / det
    within = weighted and bool(
        (np.abs(new_adc - adc) <= IRLS_TOL * np.maximum(np.abs(adc), _TINY)).all()
    )
    adc[:] = new_adc
    return within


def _weighted_log_linear_solve(b, y, log_s0, adc, weighted):
    """`_solve_block` on every block of y (B, N); True iff all are within IRLS_TOL.

    log_s0 and adc, (N,), hold the current fit and are overwritten with the
    new one.  `fan_out_ranges` gives each thread one contiguous range of
    voxels, which it cuts into `_kernels.near_equal_ranges` of at most
    FIT_BLOCK voxels and solves one after another with one scratch buffer.
    So no block is 1 voxel wide unless its whole range is: numpy sums the B
    rows of a 1-wide block pairwise, as it does a 1-d curve, and those of a
    wider one in row order, as it does a whole (B, nx, ny, nz) stack.
    """

    def run(lo, hi):
        scratch = np.empty((2, y.shape[0], min(hi - lo, FIT_BLOCK)))
        flags = [
            _solve_block(b, y[:, i:j], log_s0[i:j], adc[i:j], weighted, scratch)
            for i, j in _kernels.near_equal_ranges(lo, hi, -(-(hi - lo) // FIT_BLOCK))
        ]
        return all(flags)

    return all(_kernels.fan_out_ranges(run, y.shape[1], y.size))


def floored_log(signals):
    """log(max(signals, FLOOR_EPS)): the log domain every fit and loss works in."""
    return np.log(np.maximum(signals, FLOOR_EPS))


def _lls(b, y):
    """Plain LLS of y: (B, N) log signals; returns (log_s0, adc), each (N,)."""
    log_s0, adc = np.empty((2, y.shape[1]))
    _weighted_log_linear_solve(b, y, log_s0, adc, weighted=False)
    return log_s0, adc


def lls_fit(series: BValueSeries) -> ParameterMaps:
    """Per-voxel linear least-squares fit in the log domain.

    Signals are floored at FLOOR_EPS before the log so zeros at high b
    cannot produce infinities.  ADC is left unclamped; negative estimates
    are reported as-is.
    """
    b = np.asarray(series.bvalues, dtype=np.float64)
    y = floored_log(series.stack())
    log_s0, adc = _lls(b, y.reshape(len(b), -1))
    spacing = series.volumes[0].spacing
    return ParameterMaps(
        ScalarVolume(log_s0.reshape(series.dims), spacing),
        ScalarVolume(adc.reshape(series.dims), spacing),
    )


def lls_fit_curve(signals, bvalues):
    """Plain LLS fit of a single decay curve; returns (log_s0, adc, r2)."""
    b = np.asarray(bvalues, dtype=np.float64)
    y = floored_log(np.asarray(signals, dtype=np.float64))
    log_s0, adc = (float(v[0]) for v in _lls(b, y.reshape(-1, 1)))
    return log_s0, adc, r_squared(y, log_s0 - b * adc)


def _irls(b, y):
    """IRLS fit of b: (B,) b-values to y: (B, N) floored log signals.

    Starts from plain LLS and re-weights each measurement by the inverse of
    its absolute log residual, floored at IRLS_RESIDUAL_FLOOR, which pulls
    every curve toward its least-absolute-deviations line.  Stops once every
    curve's relative ADC change is <= IRLS_TOL, or after IRLS_MAX_ITER
    solves.  Returns (log_s0, adc), each (N,).
    """
    log_s0, adc = _lls(b, y)
    for _ in range(IRLS_MAX_ITER - 1):
        if _weighted_log_linear_solve(b, y, log_s0, adc, weighted=True):
            break
    return log_s0, adc


def irls_fit(signals, bvalues):
    """Robust fit of one decay curve by iteratively reweighted least squares.

    Runs `_irls` on the curve as one voxel.  Returns (log_s0, adc, r2), as
    `lls_fit_curve` does; r2 is the R^2 of the fit in the log domain against
    the unweighted mean.
    """
    b = np.asarray(bvalues, dtype=np.float64)
    s = np.asarray(signals, dtype=np.float64)
    if b.shape != s.shape or b.ndim != 1 or b.size < 2:
        raise ValueError("need matching 1-d signals and bvalues with B >= 2")
    y = floored_log(s)
    log_s0, adc = (float(v[0]) for v in _irls(b, y.reshape(-1, 1)))
    return log_s0, adc, r_squared(y, log_s0 - b * adc)


def irls_fit_volume(series: BValueSeries):
    """`_irls` on every voxel at once, until all meet the tolerance.

    Returns (ParameterMaps, r2 map as ScalarVolume); a voxel whose log
    signals have zero variance gets R^2 = 0.
    """
    b = np.asarray(series.bvalues, dtype=np.float64)
    y = floored_log(series.stack()).reshape(len(b), -1)
    log_s0, adc = _irls(b, y)
    ss_res = (_residuals(b, y, log_s0, adc) ** 2).sum(axis=0)
    ymean = y.mean(axis=0)
    ss_tot = ((y - ymean[None]) ** 2).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(ss_tot > 0, 1.0 - ss_res / ss_tot, 0.0)
    spacing = series.volumes[0].spacing
    dims = series.dims
    maps = ParameterMaps(
        ScalarVolume(log_s0.reshape(dims), spacing), ScalarVolume(adc.reshape(dims), spacing)
    )
    return maps, ScalarVolume(r2.reshape(dims), spacing)


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

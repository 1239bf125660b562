"""Mono-exponential decay model: forward evaluation, LLS and robust L1 fitting.

The data model is S_i = S0 * exp(-b_i * ADC).  Fitting happens in the log
domain, where the model is the line log S0 - b * ADC in the unknowns
(log S0, ADC).  Both per-voxel fits are closed form:

- plain least squares (LLS) solves the 2x2 normal equations; this is the
  hot path of registration, so no general linear algebra is involved;
- the robust fit is the least-absolute-deviations (LAD) line, the one with
  the lowest sum of absolute log residuals.  A two-parameter L1 fit has an
  optimum on a line through two of the samples, a vertex of its linear
  program (Barrodale & Roberts, SIAM J. Numer. Anal. 1973).  So the fit
  scores the line through each pair of samples with distinct b-values,
  C(6, 2) = 15 lines at 6 b-values, and keeps the lowest: exact, with no
  tolerance and no iteration cap.

The robust fit's public names, `irls_fit` and `irls_fit_volume`, and the
`irls` method and output names come from the IRLS fit it replaced.  They
stay because the benchmark's span targets and the output file names use
them.

Both fits run on log signals flattened to (B, N), in `_fit_blocks`:
`lls_fit` and `irls_fit_volume` pass a whole stack, `lls_fit_curve` and
`irls_fit` one curve as N = 1.  `_kernels.fan_out_ranges` gives each thread
one contiguous range of voxels (a stack too small to pay for a thread stays
on the calling one), which the thread cuts into blocks of at most FIT_BLOCK
voxels, so a block's arrays stay in cache through the whole solve.  Every
voxel sees the same operations in the same order whatever the blocks and
threads, so both fits keep their bits at every thread budget.  The L1 fit
adds each line's absolute residuals row by row, so a curve also gets the
bits of the same voxel in a stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _kernels
from .volume import BValueSeries, RoiMask, ScalarVolume

FLOOR_EPS = 1e-6  # signals are floored here before the log
# Voxels per block of a fit.  At 6 b-values a block's log signals take
# 768 KiB, as does each of LLS's 2 scratch arrays; the L1 fit's scratch is
# one such array plus 4 rows of 128 KiB.  Of 8192-24576, 16384 was the
# fastest LLS on 2 threads of a 2-core x86 host (2 MiB L2 per core), where
# smaller blocks make more numpy calls and so more interpreter-lock
# handoffs; on 1 thread 8192 was up to 10% faster.
FIT_BLOCK = 16384


class DegenerateDesignError(ValueError):
    """All b-values equal: no line through the samples has a defined slope."""


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


def _fit_blocks(solve_block, y, scratch_rows):
    """(log_s0, adc), each (N,): `solve_block` on every block of y (B, N).

    `fan_out_ranges` gives each thread one contiguous range of voxels,
    which it cuts into `_kernels.near_equal_ranges` of at most FIT_BLOCK
    voxels and solves one after another as
    solve_block(y_block, log_s0_block, adc_block, scratch) with one
    (scratch_rows, block width) scratch buffer.  So no block is 1 voxel
    wide unless its whole range is, which LLS needs: numpy sums the B rows
    of a 1-wide block pairwise, as it does a 1-d curve, and those of a
    wider one in row order, as it does a whole (B, nx, ny, nz) stack.
    """
    log_s0, adc = np.empty((2, y.shape[1]))

    def run(lo, hi):
        scratch = np.empty((scratch_rows, min(hi - lo, FIT_BLOCK)))
        for i, j in _kernels.near_equal_ranges(lo, hi, -(-(hi - lo) // FIT_BLOCK)):
            solve_block(y[:, i:j], log_s0[i:j], adc[i:j], scratch[:, : j - i])

    _kernels.fan_out_ranges(run, y.shape[1], y.size)
    return log_s0, adc


def _lls_block(b, y, log_s0, adc, scratch):
    """Closed-form LLS of y ~ log S0 - b * ADC on a block.

    b: (B,) b-values; y: (B, n) log signals; log_s0, adc: (n,) views that
    receive the fit.  scratch: (2B, n).
    """
    w, t = scratch.reshape(2, len(b), -1)
    w.fill(1.0)
    bcol = b[:, None]
    sw = w.sum(axis=0)
    sy = np.multiply(w, y, out=t).sum(axis=0)
    w *= bcol  # w * b from here on
    sb = w.sum(axis=0)
    sbb = np.multiply(w, bcol, out=t).sum(axis=0)
    sby = np.multiply(w, y, out=t).sum(axis=0)
    det = sw * sbb - sb * sb
    # array methods, not np.all: this runs once per 1-voxel curve fit, where
    # the function wrappers cost more than the math
    if not ((det > 0).all() and np.isfinite(det).all()):
        raise DegenerateDesignError("degenerate design: b-values carry no spread")
    log_s0[:] = (sbb * sy - sb * sby) / det
    adc[:] = (sb * sy - sw * sby) / det


def _pair_line(b, y, i, j, log_s0, adc, cost, resid):
    """The line through samples i and j of every voxel, and its L1 cost.

    Writes ADC = (y_i - y_j) / (b_j - b_i) and log S0 = y_i + b_i * ADC to
    adc and log_s0, and the sum over k of |residual_k|, added in row order,
    to cost; resid (B, n) is scratch.
    """
    np.subtract(y[i], y[j], out=adc)
    adc /= b[j] - b[i]
    np.multiply(adc, b[i], out=log_s0)
    log_s0 += y[i]
    np.abs(_residuals(b, y, log_s0, adc, out=resid), out=resid)
    np.copyto(cost, resid[0])
    for row in resid[1:]:
        cost += row


def _lad_block(b, pairs, y, log_s0, adc, scratch):
    """Least-absolute-deviations line of y ~ log S0 - b * ADC on a block.

    pairs: the sample pairs (i, j), i < j, with b_i != b_j, in order.  Each
    voxel gets the first pair's line with the lowest L1 cost (`_pair_line`).
    The first pair seeds every voxel, so a voxel whose costs are all NaN
    keeps that line.  y, log_s0, adc as in `_lls_block`; scratch: (B + 4, n).
    """
    resid, (line_s0, line_adc, cost, best) = scratch[: len(b)], scratch[len(b) :]
    (i, j), *rest = pairs
    _pair_line(b, y, i, j, log_s0, adc, best, resid)
    for i, j in rest:
        _pair_line(b, y, i, j, line_s0, line_adc, cost, resid)
        better = cost < best
        np.copyto(log_s0, line_s0, where=better)
        np.copyto(adc, line_adc, where=better)
        np.copyto(best, cost, where=better)


def floored_log(signals):
    """log(max(signals, FLOOR_EPS)): the log domain every fit and loss works in."""
    return np.log(np.maximum(signals, FLOOR_EPS))


def _lls(b, y):
    """Plain LLS of y: (B, N) log signals; returns (log_s0, adc), each (N,)."""
    return _fit_blocks(partial(_lls_block, b), y, 2 * len(b))


def _lad(b, y):
    """Least-absolute-deviations fit of y: (B, N) log signals to b: (B,).

    Returns (log_s0, adc), each (N,).  Raises DegenerateDesignError when no
    two b-values differ.
    """
    pairs = [(i, j) for i in range(len(b)) for j in range(i + 1, len(b)) if b[i] != b[j]]
    if not pairs:
        raise DegenerateDesignError("degenerate design: b-values carry no spread")
    return _fit_blocks(partial(_lad_block, b, pairs), y, len(b) + 4)


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


def irls_fit(signals, bvalues):
    """Robust fit of one decay curve: its least-absolute-deviations line.

    Runs `_lad` on the curve as one voxel.  Returns (log_s0, adc, r2), as
    `lls_fit_curve` does; r2 is the R^2 of the fit in the log domain.
    """
    b = np.asarray(bvalues, dtype=np.float64)
    s = np.asarray(signals, dtype=np.float64)
    if b.shape != s.shape or b.ndim != 1 or b.size < 2:
        raise ValueError("need matching 1-d signals and bvalues with B >= 2")
    y = floored_log(s)
    log_s0, adc = (float(v[0]) for v in _lad(b, y.reshape(-1, 1)))
    return log_s0, adc, r_squared(y, log_s0 - b * adc)


def irls_fit_volume(series: BValueSeries):
    """`_lad` on every voxel: the robust fit of each voxel's decay curve.

    Returns (ParameterMaps, r2 map as ScalarVolume); a voxel whose log
    signals have zero variance gets R^2 = 0.
    """
    b = np.asarray(series.bvalues, dtype=np.float64)
    y = floored_log(series.stack()).reshape(len(b), -1)
    log_s0, adc = _lad(b, y)
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

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
on the calling one) and one block's scratch, which it makes on the calling
thread; the thread cuts its range into blocks of at most FIT_BLOCK voxels,
so a block's arrays stay in cache through the whole solve.  Every
voxel sees the same operations in the same order whatever the blocks and
threads, so both fits keep their bits at every thread budget.  Both fits
add their per-sample terms row by row, so a curve also gets the bits of the
same voxel in a stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _kernels
from .volume import BValueSeries, DimensionMismatchError, EmptyRoiError, RoiMask, ScalarVolume

FLOOR_EPS = 1e-6  # signals are floored here before the log
# Voxels per block of a fit.  At 6 b-values a block's log signals take
# 768 KiB; LLS's scratch is 2 rows of 128 KiB, the L1 fit's one (B, n)
# array of 768 KiB plus 4 rows.  On a 2-core x86 host (2 MiB L2 per core),
# `lls_fit` at 96x96x16 took 11.6, 10.8, 8.6 and 10.7 ms on 1 thread at
# blocks of 8192, 16384, 32768 and the whole stack, and 11.3, 8.7, 8.7 and
# 8.8 ms on 2.  The L1 fit took 62, 62, 40, 39 and 39 ms on 2 threads at
# 4096, 8192, 16384, 32768 and 73728.
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


def _fit_blocks(solve_block, y, scratch_rows, outputs=2):
    """`outputs` rows of (N,) results of `solve_block` on every block of y (B, N).

    `fan_out_ranges` gives each thread one contiguous range of voxels and
    one (scratch_rows, block width) scratch buffer; the thread cuts its
    range into `_kernels.near_equal_ranges` of at most FIT_BLOCK voxels and
    solves them one after another as solve_block(y_block, *output_blocks,
    scratch); the outputs are (log_s0, adc) and, for a third, the R^2 map.
    Every solve adds the B rows one by one, so a voxel's bits do not depend
    on its block's width.
    """
    out = np.empty((outputs, y.shape[1]))

    def block_scratch(lo, hi):
        return np.empty((scratch_rows, min(hi - lo, FIT_BLOCK)))

    def run(lo, hi, scratch):
        for i, j in _kernels.near_equal_ranges(lo, hi, -(-(hi - lo) // FIT_BLOCK)):
            solve_block(y[:, i:j], *out[:, i:j], scratch[:, : j - i])

    _kernels.fan_out_ranges(run, y.shape[1], y.size, block_scratch)
    return out


def _lls_block(b, sums, y, log_s0, adc, scratch):
    """Closed-form LLS of y ~ log S0 - b * ADC on a block.

    b: (B,) b-values; sums: the design's (B, sum b, sum b^2, determinant)
    from `_lls`; y: (B, n) log signals; log_s0, adc: (n,) views that
    receive the fit.  scratch: (2, n).  Sums y and b * y row by row, adc
    holding each b_k * y_k on the way.
    """
    sw, sb, sbb, det = sums
    sy, sby = scratch
    np.copyto(sy, y[0])
    np.multiply(y[0], b[0], out=sby)
    for bk, yk in zip(b[1:], y[1:]):
        sy += yk
        sby += np.multiply(yk, bk, out=adc)
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
    voxel gets the first pair's line with the lowest L1 cost (`_pair_line`):
    a pair wins only where its cost is below the lowest cost so far, and a
    NaN cost never wins.  The first pair seeds every voxel, so a voxel
    whose first cost is NaN keeps that line: its lowest cost starts at
    -inf, which no cost is below.  The lowest cost so far is kept by fmin,
    which passes over a NaN, and the winning pair's number by a
    multiply-and-maximum, since the numbers rise; the winning line is
    computed once, from its pair, with the operations of `_pair_line`.  y,
    log_s0, adc as in `_lls_block`; scratch: (B + 5, n), whose last row
    holds the winning pair numbers as intp and whose line rows hold the
    bool and intp rows of each pair's test.
    """
    resid, (line_s0, line_adc, cost, best, won) = scratch[: len(b)], scratch[len(b) :]
    won = won.view(np.intp)
    # free once a pair's cost is made, the line rows hold its test
    better, number = line_adc.view(bool)[: y.shape[1]], line_s0.view(np.intp)
    (i, j), *rest = pairs
    _pair_line(b, y, i, j, line_s0, line_adc, best, resid)
    np.copyto(best, -np.inf, where=np.isnan(best))
    won.fill(0)
    for p, (i, j) in enumerate(rest, 1):
        _pair_line(b, y, i, j, line_s0, line_adc, cost, resid)
        np.less(cost, best, out=better)
        np.fmin(best, cost, out=best)
        np.multiply(better, p, out=number)
        np.maximum(won, number, out=won)
    first, second = np.array(pairs).T
    voxels = np.arange(y.shape[1])
    yi, yj = y[first[won], voxels], y[second[won], voxels]
    np.subtract(yi, yj, out=adc)
    adc /= (b[second] - b[first])[won]
    np.multiply(adc, b[first][won], out=log_s0)
    log_s0 += yi


def _add_rows(rows, out):
    """out = rows[0] + rows[1] + ..., added in row order, the order of a
    numpy sum over axis 0."""
    np.copyto(out, rows[0])
    for row in rows[1:]:
        out += row


def _lad_r2_block(b, pairs, y, log_s0, adc, r2, scratch):
    """`_lad_block`, then the R^2 of each voxel's line into r2: 1 - ss_res /
    ss_tot where ss_tot > 0, else 0, every sum of squares and the mean added
    row by row as numpy's whole-array sums over axis 0 add them."""
    _lad_block(b, pairs, y, log_s0, adc, scratch)
    sq, (ss_res, mean, ss_tot) = scratch[: len(b)], scratch[len(b) : len(b) + 3]
    np.square(_residuals(b, y, log_s0, adc, out=sq), out=sq)
    _add_rows(sq, ss_res)
    _add_rows(y, mean)
    mean /= len(b)
    np.square(np.subtract(y, mean, out=sq), out=sq)
    _add_rows(sq, ss_tot)
    with np.errstate(divide="ignore", invalid="ignore"):  # per thread: set here
        np.divide(ss_res, ss_tot, out=r2)
    np.subtract(1.0, r2, out=r2)
    np.copyto(r2, 0.0, where=np.logical_not(ss_tot > 0))


def floored_log(signals):
    """log(max(signals, FLOOR_EPS)): the log domain every fit and loss works
    in, taken in place in the array of the maximum."""
    out = np.maximum(signals, FLOOR_EPS)
    return np.log(out, out=out)


def _lls(b, y):
    """Plain LLS of y: (B, N) log signals; returns (log_s0, adc), each (N,).

    The design's sums are constants of the b-values, added in row order
    once here, so a degenerate design raises DegenerateDesignError before
    any thread starts.
    """
    sw, sb, sbb = float(len(b)), 0.0, 0.0
    for bk in b:
        sb += bk
        sbb += bk * bk
    det = sw * sbb - sb * sb
    if not 0.0 < det < np.inf:
        raise DegenerateDesignError("degenerate design: b-values carry no spread")
    return _fit_blocks(partial(_lls_block, b, (sw, sb, sbb, det)), y, 2)


def _lad(b, y, r2=False):
    """Least-absolute-deviations fit of y: (B, N) log signals to b: (B,).

    Returns (log_s0, adc), each (N,), and with r2 the R^2 map of the fit
    too, made in the same blocks (`_lad_r2_block`).  Raises
    DegenerateDesignError when no two b-values differ.
    """
    pairs = [(i, j) for i in range(len(b)) for j in range(i + 1, len(b)) if b[i] != b[j]]
    if not pairs:
        raise DegenerateDesignError("degenerate design: b-values carry no spread")
    solve = partial(_lad_r2_block if r2 else _lad_block, b, pairs)
    return _fit_blocks(solve, y, len(b) + 5, 3 if r2 else 2)


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


def _curve(signals, bvalues):
    """(b, floored log signals) of one decay curve, as (B,) float arrays;
    ValueError unless both are 1-d of the same length B >= 2."""
    b = np.asarray(bvalues, dtype=np.float64)
    s = np.asarray(signals, dtype=np.float64)
    if b.shape != s.shape or b.ndim != 1 or b.size < 2:
        raise ValueError("need matching 1-d signals and bvalues with B >= 2")
    return b, floored_log(s)


def lls_fit_curve(signals, bvalues):
    """Plain LLS fit of a single decay curve; returns (log_s0, adc, r2)."""
    b, y = _curve(signals, bvalues)
    log_s0, adc = (float(v[0]) for v in _lls(b, y.reshape(-1, 1)))
    return log_s0, adc, r_squared(y, log_s0 - b * adc)


def irls_fit(signals, bvalues):
    """Robust fit of one decay curve: its least-absolute-deviations line.

    Runs `_lad` on the curve as one voxel.  Returns (log_s0, adc, r2), as
    `lls_fit_curve` does; r2 is the R^2 of the fit in the log domain.
    """
    b, y = _curve(signals, bvalues)
    log_s0, adc = (float(v[0]) for v in _lad(b, y.reshape(-1, 1)))
    return log_s0, adc, r_squared(y, log_s0 - b * adc)


def irls_fit_volume(series: BValueSeries):
    """`_lad` on every voxel: the robust fit of each voxel's decay curve.

    Returns (ParameterMaps, r2 map as ScalarVolume); a voxel whose log
    signals have zero variance gets R^2 = 0.  The R^2 map is made block by
    block in the fit's own threads and scratch.
    """
    b = np.asarray(series.bvalues, dtype=np.float64)
    y = floored_log(series.stack()).reshape(len(b), -1)
    log_s0, adc, r2 = _lad(b, y, r2=True)
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
    """Mean signal inside the ROI, one value per b-value.

    Raises DimensionMismatchError for an ROI on another grid and
    EmptyRoiError for an empty ROI.
    """
    if roi.dims != series.dims:
        raise DimensionMismatchError("roi dims must match series dims")
    if roi.count == 0:
        raise EmptyRoiError("empty ROI")
    mask = roi.data
    return np.array([float(v.data[mask].mean()) for v in series.volumes])

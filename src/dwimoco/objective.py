"""Registration objective: similarity + smoothness + model-fit terms.

The total loss is

    L = L_similarity + alpha1 * L_smooth + alpha2 * L_model_fit

where L_similarity is the mean absolute difference between the model
reconstruction and the warped acquisition (averaged over b-values and the
full domain), L_smooth penalizes squared spatial gradients of every
displacement field, and L_model_fit is the mean squared log-domain decay
residual of the warped signals inside the ROI, holding the parameter maps
fixed.

Two evaluation routes exist on purpose: the public per-term functions below
are plain numpy and easy to audit, while `loss_and_gradient` runs the fused
kernels used by the optimizer.  The tests pin them against each other and
against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .signal_model import FLOOR_EPS, ParameterMaps
from .volume import (
    BValueSeries,
    DimensionMismatchError,
    DisplacementField,
    RoiMask,
    spatial_gradient,
    warp_series,
)


class EmptyRoiError(ValueError):
    """Model-fit loss needs at least one ROI voxel."""


@dataclass(frozen=True)
class LossWeights:
    """Term weights: alpha1 scales smoothness, alpha2 scales model fit."""

    alpha1: float = 0.01
    alpha2: float = 1000.0

    def __post_init__(self):
        for name in ("alpha1", "alpha2"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class LossBreakdown:
    """Raw term values plus the weighted total.

    `model_fit` is reported as 0.0 when alpha2 == 0: the term is skipped
    entirely so the parameter maps are never read in that configuration.
    """

    similarity: float
    smooth: float
    model_fit: float
    total: float


def _check_series_pair(a: BValueSeries, b: BValueSeries):
    if a.dims != b.dims or a.bvalues != b.bvalues:
        raise DimensionMismatchError("series must share dims and b-values")


def similarity_loss(fixed: BValueSeries, warped: BValueSeries) -> float:
    """Mean absolute intensity difference over all b-values and voxels."""
    _check_series_pair(fixed, warped)
    total = 0.0
    for f, w in zip(fixed.volumes, warped.volumes):
        total += float(np.abs(f.data - w.data).mean())
    return total / fixed.b_count


def smoothness_loss(field: DisplacementField) -> float:
    """Mean over voxels of the squared Frobenius norm of the field Jacobian.

    Dividing the sum by the voxel count lets the weight alpha1 transfer
    across resolutions.
    """
    jac = spatial_gradient(field)
    return float((jac * jac).sum()) / float(np.prod(field.dims))


def model_fit_loss(warped: BValueSeries, maps: ParameterMaps, roi: RoiMask) -> float:
    """Mean squared log-domain decay residual inside the ROI.

    Residual per voxel and b-value: log_s0 - b * adc - log(max(S, eps)).
    The maps are treated as constants.  On the maps' own reconstruction the
    residual is y - log(exp(y)), which float64 rounds to an ulp or two of
    max(1, |y|) rather than to exactly 0.
    """
    if roi.dims != warped.dims or maps.dims != warped.dims:
        raise DimensionMismatchError("warped series, maps and roi must share dims")
    if roi.count == 0:
        raise EmptyRoiError("model-fit loss needs a non-empty ROI")
    mask = roi.data
    log_s0 = maps.log_s0.data[mask]
    adc = maps.adc.data[mask]
    total = 0.0
    for b, vol in zip(warped.bvalues, warped.volumes):
        s = np.maximum(vol.data[mask], FLOOR_EPS)
        r = log_s0 - b * adc - np.log(s)
        total += float((r * r).mean())
    return total / warped.b_count


def _check_fields(series: BValueSeries, fields) -> list:
    fields = list(fields)
    if len(fields) != series.b_count:
        raise DimensionMismatchError("need exactly one field per b-value")
    for f in fields:
        if f.dims != series.dims:
            raise DimensionMismatchError("field dims must match series dims")
    return fields


def total_loss(
    fixed: BValueSeries,
    moving: BValueSeries,
    fields,
    maps: ParameterMaps | None,
    roi: RoiMask,
    weights: LossWeights,
) -> LossBreakdown:
    """Warp `moving` by the per-b-value fields and evaluate all three terms."""
    _check_series_pair(fixed, moving)
    fields = _check_fields(moving, fields)
    warped = warp_series(moving, fields)
    sim = similarity_loss(fixed, warped)
    smooth = sum(smoothness_loss(f) for f in fields)
    mf = 0.0
    if weights.alpha2 != 0.0:
        mf = model_fit_loss(warped, maps, roi)
    return LossBreakdown(sim, smooth, mf, sim + weights.alpha1 * smooth + weights.alpha2 * mf)


def loss_and_gradient(
    fixed: BValueSeries,
    moving: BValueSeries,
    fields_arr: np.ndarray,
    maps: ParameterMaps | None,
    roi: RoiMask,
    weights: LossWeights,
):
    """Fused evaluation of the total loss and its gradient w.r.t. the fields.

    fields_arr has shape (B, nx, ny, nz, 3).  Returns (LossBreakdown, grad)
    with grad of the same shape, holding d(total)/d(u).  The L1 subgradient
    is 0 at exact ties and the trilinear derivative is 0 where sampling was
    clamped, so the gradient is defined everywhere.

    At an exact model fit (moving == fixed == reconstruct(maps), zero fields)
    the similarity and smoothness gradients are exactly 0.  The model-fit
    gradient is 0 only up to float64 rounding of log(exp(.)) in the residual
    (see `model_fit_loss`), scaled by alpha2 * 2 / (B * n_roi) * |dw/du| / w.
    """
    _check_series_pair(fixed, moving)
    dims = moving.dims
    n_b = moving.b_count
    if fields_arr.shape != (n_b,) + dims + (3,):
        raise DimensionMismatchError(
            f"fields_arr shape {fields_arr.shape} != {(n_b,) + dims + (3,)}"
        )
    n_vox = int(np.prod(dims))
    use_mf = weights.alpha2 != 0.0
    if use_mf:
        if roi.count == 0:
            raise EmptyRoiError("model-fit loss needs a non-empty ROI")
        n_roi = roi.count
        roi_mask = roi.data
        log_s0 = maps.log_s0.data
        adc = maps.adc.data
        mf_c = weights.alpha2 / (n_b * n_roi)
    else:
        n_roi = 1
        roi_mask = _NO_ROI.setdefault(dims, np.zeros(dims, dtype=bool))
        mf_c = 0.0
    sim_c = 1.0 / (n_b * n_vox)
    smooth_w = weights.alpha1 / n_vox

    grad = np.zeros_like(fields_arr)
    sim_sum = 0.0
    mf_sum = 0.0
    smooth_sum = 0.0
    zeros = None
    for i in range(n_b):
        if use_mf:
            pred_log = log_s0 - moving.bvalues[i] * adc
        else:
            if zeros is None:
                zeros = np.zeros(dims, dtype=np.float64)
            pred_log = zeros
        s, m = _kernels.match_terms(
            moving.volumes[i].data,
            fields_arr[i],
            fixed.volumes[i].data,
            pred_log,
            roi_mask,
            FLOOR_EPS,
            sim_c,
            mf_c,
            grad[i],
        )
        sim_sum += s
        mf_sum += m
        smooth_sum += _kernels.smooth_loss_grad(fields_arr[i], grad[i], smooth_w)

    sim = sim_sum / (n_b * n_vox)
    mf = mf_sum / (n_b * n_roi) if use_mf else 0.0
    smooth = smooth_sum / n_vox
    bd = LossBreakdown(sim, smooth, mf, sim + weights.alpha1 * smooth + weights.alpha2 * mf)
    return bd, grad


_NO_ROI: dict = {}


def per_term_gradients(
    fixed: BValueSeries,
    moving: BValueSeries,
    fields,
    maps: ParameterMaps,
    roi: RoiMask,
):
    """Unweighted gradient of each loss term separately (for verification).

    Each term is isolated exactly by zeroing the other terms' prefactors in
    the kernels.  Returns {"similarity": g, "smooth": g, "model_fit": g},
    each of shape (B, nx, ny, nz, 3).
    """
    fields = _check_fields(moving, fields)
    if roi.count == 0:
        raise EmptyRoiError("model-fit loss needs a non-empty ROI")
    dims = moving.dims
    n_b = moving.b_count
    n_vox = int(np.prod(dims))
    shape = (n_b,) + dims + (3,)
    g_sim = np.zeros(shape)
    g_mf = np.zeros(shape)
    g_sm = np.zeros(shape)
    sim_c = 1.0 / (n_b * n_vox)
    mf_c = 1.0 / (n_b * roi.count)
    smooth_w = 1.0 / n_vox
    no_roi = np.zeros(dims, dtype=bool)
    zeros = np.zeros(dims, dtype=np.float64)
    for i in range(n_b):
        pred_log = maps.log_s0.data - moving.bvalues[i] * maps.adc.data
        _kernels.match_terms(
            moving.volumes[i].data, fields[i].data, fixed.volumes[i].data,
            zeros, no_roi, FLOOR_EPS, sim_c, 0.0, g_sim[i],
        )
        _kernels.match_terms(
            moving.volumes[i].data, fields[i].data, fixed.volumes[i].data,
            pred_log, roi.data, FLOOR_EPS, 0.0, mf_c, g_mf[i],
        )
        _kernels.smooth_loss_grad(fields[i].data, g_sm[i], smooth_w)
    return {"similarity": g_sim, "smooth": g_sm, "model_fit": g_mf}

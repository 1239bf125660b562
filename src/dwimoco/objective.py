"""Registration objective: similarity + smoothness + model-fit terms.

The total loss is

    L = L_similarity + alpha1 * L_smooth + alpha2 * L_model_fit

where L_similarity is the mean absolute difference between the model
reconstruction and the warped acquisition (averaged over b-values and the
full domain), L_smooth penalizes squared spatial gradients of every
displacement field, and L_model_fit is the mean squared log-domain decay
residual of the warped signals inside the ROI, holding the parameter maps
fixed.  alpha2 is a weight, not a switch: the registration-only method is
alpha2 = 0 on the same path, and every term is always evaluated and
reported unweighted, so both methods can be compared on the same terms.

Two evaluation routes exist on purpose: the public per-term functions below
are plain numpy and easy to audit, while `loss_and_gradient` and
`per_term_gradients` run the fused kernels through one per-b-value loop.
The tests pin the routes against each other and against finite
differences.  With the parameter maps held fixed, the b-value images are
independent, so that loop is one `_kernels.fan_out` task per b-value: each
writes only its own gradient slice, and the returned sums are added in
b-value order, so the result has the bits of the serial loop at any thread
budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .signal_model import FLOOR_EPS, ParameterMaps, floored_log
from .volume import (
    BValueSeries,
    DimensionMismatchError,
    DisplacementField,
    RoiMask,
    spatial_gradient,
    warp_series,
)


# Bound at import: the per-b-value tasks run on helper threads, which must
# not enter the names a tracer wraps in `_kernels` (perfbench/spans.py keeps
# one span stack for all threads).
_match_terms = _kernels.match_terms
_smooth_loss_grad = _kernels.smooth_loss_grad


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
    """Raw (unweighted) term values plus the weighted total."""

    similarity: float
    smooth: float
    model_fit: float
    total: float

    @classmethod
    def weighted(cls, similarity, smooth, model_fit, weights: LossWeights) -> LossBreakdown:
        """The breakdown whose total is similarity + alpha1*smooth + alpha2*model_fit."""
        total = similarity + weights.alpha1 * smooth + weights.alpha2 * model_fit
        return cls(similarity, smooth, model_fit, total)


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
        r = log_s0 - b * adc - floored_log(vol.data[mask])
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
    maps: ParameterMaps,
    roi: RoiMask,
    weights: LossWeights,
) -> LossBreakdown:
    """Warp `moving` by the per-b-value fields and evaluate all three terms."""
    _check_series_pair(fixed, moving)
    fields = _check_fields(moving, fields)
    warped = warp_series(moving, fields)
    sim = similarity_loss(fixed, warped)
    smooth = sum(smoothness_loss(f) for f in fields)
    return LossBreakdown.weighted(sim, smooth, model_fit_loss(warped, maps, roi), weights)


def _term_scales(moving: BValueSeries, roi: RoiMask):
    """The divisors that turn raw kernel sums into mean terms.

    (B * n_vox, B * n_roi, n_vox) for similarity, model fit and smoothness.
    """
    if roi.count == 0:
        raise EmptyRoiError("model-fit loss needs a non-empty ROI")
    n_vox = int(np.prod(moving.dims))
    return moving.b_count * n_vox, moving.b_count * roi.count, n_vox


def _term_sums(fixed, moving, fields_arr, maps, roi, sim_c, mf_c, smooth_w, grad):
    """The fused kernels on every b-value image, one `fan_out` task each.

    Writes sim_c * d(L1 sum)/du + mf_c * d(residual sum)/du + smooth_w *
    d(smoothness sum)/du into grad (shaped like fields_arr) and returns the
    raw sums (similarity, model fit, smoothness), added in b-value order.
    A zero prefactor adds only signed zeros, so one term is isolated
    exactly by zeroing the other two prefactors.
    """

    def one_bvalue(i):
        g = grad[i]
        g.fill(0.0)
        s, m = _match_terms(
            moving.volumes[i].data,
            fields_arr[i],
            fixed.volumes[i].data,
            maps.log_s0.data - moving.bvalues[i] * maps.adc.data,
            roi.data,
            FLOOR_EPS,
            sim_c,
            mf_c,
            g,
        )
        return s, m, _smooth_loss_grad(fields_arr[i], g, smooth_w)

    sim_sum = 0.0
    mf_sum = 0.0
    smooth_sum = 0.0
    for s, m, smooth in _kernels.fan_out(one_bvalue, moving.b_count, fields_arr[0].size):
        sim_sum += s
        mf_sum += m
        smooth_sum += smooth
    return sim_sum, mf_sum, smooth_sum


def loss_and_gradient(
    fixed: BValueSeries,
    moving: BValueSeries,
    fields_arr: np.ndarray,
    maps: ParameterMaps,
    roi: RoiMask,
    weights: LossWeights,
    grad: np.ndarray,
) -> LossBreakdown:
    """Fused evaluation of the total loss and its gradient w.r.t. the fields.

    fields_arr and grad have shape (B, nx, ny, nz, 3).  Overwrites grad
    with d(total)/d(u), so the caller can reuse one buffer across
    evaluations, and returns the LossBreakdown.  Every term is evaluated
    for every weight; with alpha2 = 0 the model-fit term is reported
    unweighted and adds nothing to the total or the gradient.  The L1
    subgradient is 0 at exact ties and the trilinear derivative is 0 where
    sampling was clamped, so the gradient is defined everywhere.

    At an exact model fit (moving == fixed == reconstruct(maps), zero fields)
    the similarity and smoothness gradients are exactly 0.  The model-fit
    gradient is 0 only up to float64 rounding of log(exp(.)) in the residual
    (see `model_fit_loss`), scaled by alpha2 * 2 / (B * n_roi) * |dw/du| / w.
    """
    _check_series_pair(fixed, moving)
    shape = (moving.b_count,) + moving.dims + (3,)
    for name, arr in (("fields_arr", fields_arr), ("grad", grad)):
        if arr.shape != shape:
            raise DimensionMismatchError(f"{name} shape {arr.shape} != {shape}")
    n_sim, n_mf, n_vox = _term_scales(moving, roi)
    sim_sum, mf_sum, smooth_sum = _term_sums(
        fixed, moving, fields_arr, maps, roi,
        1.0 / n_sim, weights.alpha2 / n_mf, weights.alpha1 / n_vox, grad,
    )
    return LossBreakdown.weighted(sim_sum / n_sim, smooth_sum / n_vox, mf_sum / n_mf, weights)


def per_term_gradients(
    fixed: BValueSeries,
    moving: BValueSeries,
    fields,
    maps: ParameterMaps,
    roi: RoiMask,
):
    """Unweighted gradient of each loss term separately (for verification).

    Runs the loop of `loss_and_gradient` once per term, with the other
    two prefactors zero.  Returns {"similarity": g, "smooth": g,
    "model_fit": g}, each of shape (B, nx, ny, nz, 3).
    """
    fields = _check_fields(moving, fields)
    fields_arr = np.stack([f.data for f in fields])
    n_sim, n_mf, n_vox = _term_scales(moving, roi)
    prefactors = {
        "similarity": (1.0 / n_sim, 0.0, 0.0),
        "model_fit": (0.0, 1.0 / n_mf, 0.0),
        "smooth": (0.0, 0.0, 1.0 / n_vox),
    }
    out = {}
    for term, (sim_c, mf_c, smooth_w) in prefactors.items():
        out[term] = np.empty_like(fields_arr)
        _term_sums(fixed, moving, fields_arr, maps, roi, sim_c, mf_c, smooth_w, out[term])
    return out

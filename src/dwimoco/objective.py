"""Registration objective: similarity + smoothness + model-fit terms.

The total loss is

    L = L_similarity + ALPHA1 * L_smooth + alpha2 * L_model_fit

where L_similarity is the mean absolute difference between the warped
acquisition and the target, the maps' reconstruction, which every function
here builds from the maps it takes (averaged over b-values and the full
domain), L_smooth penalizes the squared forward differences of every
displacement field (the diffusion regularizer of VoxelMorph, Balakrishnan
et al., IEEE TMI 2019), and L_model_fit is the mean squared log-domain decay
residual of the warped signals inside the ROI, holding the parameter maps
fixed.  alpha2 is a weight, not a switch: the registration-only method is
alpha2 = 0 on the same path, and every term is always evaluated and
reported unweighted, so both methods can be compared on the same terms.

Two evaluation routes exist on purpose: the public per-term functions below
are plain numpy and easy to audit, while `loss_and_gradient` and
`per_term_gradients` run the fused kernels through one loop over groups of
b-value images.  The tests pin the routes against each other and against
finite differences.  With the parameter maps held fixed, the b-value images
are independent, so that loop gives each thread one contiguous range of
them (`_kernels.fan_out_ranges`), which the thread cuts into groups of
consecutive images, as many as fit `_kernels.GROUP_VOXELS`, one kernel call
each.  Each image writes only its own gradient slice, and the per-image
sums are added in b-value order, so the result has the bits of one image
per call on one thread at any group size and thread budget.  The same
tasks take the optimizer's pending Adam step (`registration.AdamStep`):
each group steps its own slice of the fields just before it evaluates
them and checks its own gradient slice for non-finite entries, so a
registration step is one pass over each b-value image.  Adam is
elementwise, so the step keeps its bits too.  What every evaluation of a
pass shares, the target and the stacked images, the ROI indices, the
predicted logs, the coordinate grid and the kernels' scratch, lives in a
`Workspace` that the optimizer makes once per pass.

The fused route works in WORK_DTYPE, float32, and sums in float64; the
per-term functions, the fields and every output stay float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .signal_model import FLOOR_EPS, ParameterMaps, floored_log, forward_signal, reconstruct
from .volume import (
    BValueSeries,
    DimensionMismatchError,
    DisplacementField,
    EmptyRoiError,
    RoiMask,
    warp_series,
)


# Bound at import: the per-b-value tasks run on helper threads, which must
# not enter the names a tracer wraps in `_kernels` (perfbench/spans.py keeps
# one span stack for all threads); the Adam step they take reaches
# `_kernels.adam_update` through `registration`'s binding.
_match_terms = _kernels.match_terms
_smooth_loss_grad = _kernels.smooth_loss_grad


ALPHA1 = 0.01  # weight of the smoothness term

# The float dtype of the fused route's state: the stacked images and target,
# the predicted logs, the kernels' scratch, the fields, the gradient and the
# Adam moments.  The case files hold float32, so float32 images carry every
# bit the input has; each kernel reduction accumulates in float64, so the
# loss is a float64 sum.  float32 halves the bytes every full-volume pass
# moves.  The tests set float64 here to pin the fused route to the per-term
# float64 functions.
WORK_DTYPE = np.float32


@dataclass(frozen=True)
class LossBreakdown:
    """Raw (unweighted) term values plus the weighted total."""

    similarity: float
    smooth: float
    model_fit: float
    total: float

    @classmethod
    def weighted(cls, similarity, smooth, model_fit, alpha2: float) -> LossBreakdown:
        """The breakdown whose total is similarity + ALPHA1*smooth + alpha2*model_fit."""
        total = similarity + ALPHA1 * smooth + alpha2 * model_fit
        return cls(similarity, smooth, model_fit, total)


def similarity_loss(target: BValueSeries, warped: BValueSeries) -> float:
    """Mean absolute intensity difference over all b-values and voxels."""
    if target.dims != warped.dims or target.bvalues != warped.bvalues:
        raise DimensionMismatchError("series must share dims and b-values")
    total = 0.0
    for t, w in zip(target.volumes, warped.volumes):
        total += float(np.abs(t.data - w.data).mean())
    return total / target.b_count


def smoothness_loss(field: DisplacementField) -> float:
    """Mean over voxels of the squared forward differences of the field.

    Sums (u_c[i+1] - u_c[i])^2 over every component c, axis and pair of
    neighbours, and divides by the voxel count, which lets the weight
    ALPHA1 transfer across resolutions.  An axis of one voxel has no pairs.
    """
    total = sum(float(np.square(np.diff(field.data, axis=a)).sum()) for a in range(3))
    return total / float(np.prod(field.dims))


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
    moving: BValueSeries, fields, maps: ParameterMaps, roi: RoiMask, alpha2: float
) -> LossBreakdown:
    """Warp `moving` by the per-b-value fields and evaluate all three terms,
    the similarity against `reconstruct(maps, moving.bvalues)`."""
    fields = _check_fields(moving, fields)
    warped = warp_series(moving, fields)
    model_fit = model_fit_loss(warped, maps, roi)
    sim = similarity_loss(reconstruct(maps, moving.bvalues), warped)
    smooth = sum(smoothness_loss(f) for f in fields)
    return LossBreakdown.weighted(sim, smooth, model_fit, alpha2)


def stack_fields(fields) -> np.ndarray:
    """The fields as one C-contiguous component-major (B, 3, nx, ny, nz)
    WORK_DTYPE array.

    This is the layout and dtype of the iterate in `loss_and_gradient`, and
    of the fields `pipeline.run_case` carries from pass to pass: each
    component of each field is one contiguous plane.  A float32 value is
    exact in float64, so `unstack_fields` and this round-trip a float32
    iterate bit for bit.
    """
    out = np.empty((len(fields), 3) + fields[0].dims, WORK_DTYPE)
    for i, f in enumerate(fields):
        out[i] = np.moveaxis(f.data, -1, 0)
    return out


def unstack_fields(arr: np.ndarray) -> list:
    """The float64 DisplacementFields, (nx, ny, nz, 3) each, of a
    `stack_fields` array; each field is converted and made voxel-major in
    one copy."""
    return [DisplacementField(np.moveaxis(a, 0, -1).astype(np.float64, order="C")) for a in arr]


class Workspace:
    """What every evaluation of one moving/maps/roi problem shares.

    Made once per optimizer pass: the target, the maps' reconstruction as
    one (B, nx, ny, nz) stack with the bits of `signal_model.reconstruct`
    rounded to WORK_DTYPE, the moving images stacked the same way, the
    ROI's flat indices for a group of images, each image's predicted log
    signal on the ROI, in WORK_DTYPE too, the term scales, the grid's
    coordinate rows (`_kernels.coordinate_grid`) and the
    `_kernels.GroupScratch` of each thread range, which the first
    evaluation that runs the range makes on the calling thread, before it
    hands the ranges out.  grad_finite tells whether every entry of the
    last gradient `loss_and_gradient` wrote is finite.  Raises
    DimensionMismatchError for a series, maps or roi on different grids,
    and EmptyRoiError for an empty ROI.
    """

    def __init__(self, moving: BValueSeries, maps: ParameterMaps, roi: RoiMask):
        if roi.dims != moving.dims or maps.dims != moving.dims:
            raise DimensionMismatchError("series, maps and roi must share dims")
        if roi.count == 0:
            raise EmptyRoiError("model-fit loss needs a non-empty ROI")
        n_vox = int(np.prod(moving.dims))
        # the divisors that turn raw kernel sums into the similarity, model
        # fit and smoothness means
        self.scales = (moving.b_count * n_vox, moving.b_count * roi.count, n_vox)
        self.shape = (moving.b_count, 3) + moving.dims
        self.group = max(1, _kernels.GROUP_VOXELS // n_vox)  # images per kernel call
        s0 = np.exp(maps.log_s0.data)
        self.target = np.empty((moving.b_count,) + moving.dims, WORK_DTYPE)
        self.moving = np.empty_like(self.target)
        for target, image, vol, b in zip(self.target, self.moving, moving.volumes, moving.bvalues):
            target[...] = forward_signal(s0, maps.adc.data, b)
            image[...] = vol.data
        roi_idx = np.flatnonzero(roi.data)
        # row g: the ROI of image g of a group, in the raveled group
        self.roi = roi_idx + n_vox * np.arange(min(self.group, moving.b_count))[:, None]
        log_s0 = maps.log_s0.data.reshape(-1)[roi_idx]
        adc = maps.adc.data.reshape(-1)[roi_idx]
        self.pred_log = np.stack([log_s0 - b * adc for b in moving.bvalues]).astype(WORK_DTYPE)
        self.grid = _kernels.coordinate_grid(moving.dims, WORK_DTYPE)
        self.grad_finite = True
        self._scratch = {}

    def scratch(self, lo, hi):
        """The GroupScratch of the thread range of images lo..hi-1."""
        scratch = self._scratch.get((lo, hi))
        if scratch is None:
            images = min(self.group, hi - lo)
            scratch = _kernels.GroupScratch(
                images, self.shape[2:], self.roi.shape[1], self.target.dtype, self.grid
            )
            self._scratch[lo, hi] = scratch
        return scratch


def _term_sums(ws, fields_arr, sim_c, mf_c, smooth_w, grad, step=None):
    """The fused kernels on every b-value image, one range of images per thread.

    Writes sim_c * d(L1 sum)/du + mf_c * d(residual sum)/du + smooth_w *
    d(smoothness sum)/du into grad (shaped like fields_arr) and returns the
    raw sums (similarity, model fit, smoothness), added in b-value order.
    A zero prefactor adds only signed zeros, so one term is isolated
    exactly by zeroing the other two prefactors.  Each thread cuts its
    range into groups of ws.group consecutive images and hands each group
    to the kernels in one call.  If step is given, the thread first calls
    step.apply(x, g, lo, hi, scratch) on the group's flat range lo..hi-1
    of the raveled fields_arr and grad, so the group's fields are stepped
    just before they are read; scratch is the free rows of the group's
    `_kernels.GroupScratch`.  Then it checks the group's gradient for
    non-finite entries, and ws.grad_finite records whether there were
    none.  Every range's scratch is made here, before the ranges are handed
    out, so no array outlives a task that made it on a helper thread.
    """
    per_image = fields_arr[0].size
    flat_x, flat_grad = fields_arr.reshape(-1), grad.reshape(-1)

    def bvalue_range(lo, hi):
        scratch = ws.scratch(lo, hi)
        sums = []
        finite = True
        for i in range(lo, hi, ws.group):
            j = min(i + ws.group, hi)
            if step is not None:
                step.apply(
                    flat_x, flat_grad, i * per_image, j * per_image, scratch.rows.reshape(-1)
                )
            g = grad[i:j]
            g.fill(0.0)
            sim, mf = _match_terms(
                ws.moving[i:j],
                fields_arr[i:j],
                ws.target[i:j],
                ws.pred_log[i:j].reshape(-1),
                ws.roi[: j - i].reshape(-1),
                FLOOR_EPS,
                sim_c,
                mf_c,
                g,
                scratch,
            )
            sums.extend(zip(sim, mf, _smooth_loss_grad(fields_arr[i:j], g, smooth_w, scratch)))
            ok = scratch.clamped.reshape(-1)[: g.size].reshape(g.shape)
            finite = finite and bool(np.isfinite(g, out=ok).all())
        return sums, finite

    for lo, hi in _kernels.thread_ranges(len(fields_arr), fields_arr.size):
        ws.scratch(lo, hi)
    sim_sum = 0.0
    mf_sum = 0.0
    smooth_sum = 0.0
    ws.grad_finite = True
    for sums, finite in _kernels.fan_out_ranges(bvalue_range, len(fields_arr), fields_arr.size):
        ws.grad_finite = ws.grad_finite and finite
        for s, m, smooth in sums:
            sim_sum += float(s)
            mf_sum += float(m)
            smooth_sum += smooth
    return sim_sum, mf_sum, smooth_sum


def loss_and_gradient(
    ws: Workspace, fields_arr: np.ndarray, alpha2: float, grad: np.ndarray, step=None
) -> LossBreakdown:
    """Fused evaluation of the total loss and its gradient w.r.t. the fields.

    ws holds the moving series, the maps' target and the ROI (`Workspace`).
    fields_arr and grad are component-major (B, 3, nx, ny, nz) C-contiguous
    arrays of the workspace's dtype, WORK_DTYPE when it was made
    (`stack_fields`); anything else raises DimensionMismatchError for a
    wrong shape and ValueError for a wrong dtype or memory order, since the
    kernels step through memory at the axis strides and a mixed dtype
    would cast every pass.  The raw sums accumulate in float64 and the
    returned terms are Python floats.  Overwrites grad with d(total)/d(u),
    so the caller can reuse one buffer across evaluations, and returns the
    LossBreakdown; ws.grad_finite then tells whether every gradient entry
    is finite.  step is the optimizer's pending step (`registration.AdamStep`)
    or None: given one, each group of images steps its slice of fields_arr
    (reading its slice of grad, the previous gradient) just before it is
    evaluated, in the group's own thread (`_term_sums`), so the step and
    the evaluation make one pass over the images.
    Every term is evaluated for every alpha2; with alpha2 = 0 the model-fit
    term is reported unweighted and adds nothing to the total or the
    gradient.  The L1 subgradient is 0 at exact ties and the trilinear
    derivative is 0 where sampling was clamped, so the gradient is defined
    everywhere.

    At an exact model fit (moving == reconstruct(maps), zero fields)
    the similarity and smoothness gradients are exactly 0.  The model-fit
    gradient is 0 only up to the rounding of log(exp(.)) in the residual
    (see `model_fit_loss`) and of the predicted log to the working dtype,
    scaled by alpha2 * 2 / (B * n_roi) * |dw/du| / w.
    """
    dtype = ws.target.dtype
    for name, arr in (("fields_arr", fields_arr), ("grad", grad)):
        if arr.shape != ws.shape:
            raise DimensionMismatchError(f"{name} shape {arr.shape} != {ws.shape}")
        if arr.dtype != dtype or not arr.flags.c_contiguous:
            raise ValueError(f"{name} must be a C-contiguous {dtype} array, got {arr.dtype}")
    n_sim, n_mf, n_vox = ws.scales
    sim_sum, mf_sum, smooth_sum = _term_sums(
        ws, fields_arr, 1.0 / n_sim, alpha2 / n_mf, ALPHA1 / n_vox, grad, step
    )
    return LossBreakdown.weighted(sim_sum / n_sim, smooth_sum / n_vox, mf_sum / n_mf, alpha2)


def per_term_gradients(moving: BValueSeries, fields, maps: ParameterMaps, roi: RoiMask):
    """Unweighted gradient of each loss term separately (for verification).

    Runs the loop of `loss_and_gradient` once per term, with the other
    two prefactors zero.  Returns {"similarity": g, "smooth": g,
    "model_fit": g}, each of shape (B, nx, ny, nz, 3), the fields' layout.
    """
    fields = _check_fields(moving, fields)
    fields_arr = stack_fields(fields)
    ws = Workspace(moving, maps, roi)
    n_sim, n_mf, n_vox = ws.scales
    prefactors = {
        "similarity": (1.0 / n_sim, 0.0, 0.0),
        "model_fit": (0.0, 1.0 / n_mf, 0.0),
        "smooth": (0.0, 0.0, 1.0 / n_vox),
    }
    out = {}
    for term, (sim_c, mf_c, smooth_w) in prefactors.items():
        grad = np.empty_like(fields_arr)
        _term_sums(ws, fields_arr, sim_c, mf_c, smooth_w, grad)
        out[term] = np.moveaxis(grad, 1, -1)
    return out

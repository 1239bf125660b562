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
each; an image larger than that is one group, cut into `_kernels.slabs` of
whole x-planes, one kernel call each, so no call's scratch holds more than
GROUP_VOXELS voxels (or one plane, where a plane is larger).  Each image
writes only its own gradient slice, and the per-image sums, carried from
slab to slab (`_kernels.RowSums`), are added in b-value order, so the
result has the bits of one image per call on one thread at any group or
slab size and thread budget.  The same tasks take the optimizer's Adam
step (`registration.AdamStep`): each group steps its own slice of the
fields just before it evaluates them, then makes the gradient of each call
in a call-sized buffer, checks it for non-finite entries and folds it into
its slice of the Adam moments, so a registration step is one pass over
each b-value image and no whole gradient exists.  Adam is elementwise, so
the step keeps its bits too.  What every evaluation of a pass shares, the
target and the stacked images, the ROI indices of each slab, the maps on
the ROI, the coordinate grid and, per thread range, the kernels' scratch
with one call's gradient and predicted logs, lives in a `Workspace` that
the optimizer makes once per pass.

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
    rounded to WORK_DTYPE, the moving images divided by scale and stacked
    the same way (with the bits of `volume.normalize_series` when scale is
    the series' normalization scale, so a caller need not keep a
    normalized copy), the b-values and the two maps on the ROI, from which
    each kernel call makes its images' predicted logs (`pred_log`), the
    term scales, the grid's coordinate rows
    (`_kernels.coordinate_grid`), slabs, which holds, per kernel call of an
    image (`_kernels.slabs`: the whole image when it fits
    `_kernels.GROUP_VOXELS`), its x-planes x0..x1-1, its share k0..k1-1 of
    the ROI voxels and their flat indices in the call's raveled planes, row
    g for image g of a group, and the `_kernels.GroupScratch` of each
    thread range, sized to one call, with that call's gradient, which the
    first evaluation that runs the range makes on the calling thread,
    before it hands the ranges out.  grad_finite tells
    whether every entry of the last gradient that `loss_and_gradient` made
    and folded into an Adam step's moments is finite.  Raises
    DimensionMismatchError for a series, maps or roi on different grids,
    and EmptyRoiError for an empty ROI.
    """

    def __init__(
        self, moving: BValueSeries, maps: ParameterMaps, roi: RoiMask, scale: float = 1.0
    ):
        if roi.dims != moving.dims or maps.dims != moving.dims:
            raise DimensionMismatchError("series, maps and roi must share dims")
        if roi.count == 0:
            raise EmptyRoiError("model-fit loss needs a non-empty ROI")
        dims = moving.dims
        n_vox = int(np.prod(dims))
        plane = dims[1] * dims[2]
        # the divisors that turn raw kernel sums into the similarity, model
        # fit and smoothness means
        self.scales = (moving.b_count * n_vox, moving.b_count * roi.count, n_vox)
        self.shape = (moving.b_count, 3) + dims
        self.group = max(1, _kernels.GROUP_VOXELS // n_vox)  # images per kernel call
        s0 = np.exp(maps.log_s0.data)
        self.target = np.empty((moving.b_count,) + dims, WORK_DTYPE)
        self.moving = np.empty_like(self.target)
        for target, image, vol, b in zip(self.target, self.moving, moving.volumes, moving.bvalues):
            target[...] = forward_signal(s0, maps.adc.data, b)
            np.divide(vol.data, scale, out=image)
        roi_idx = np.flatnonzero(roi.data)
        self.bvalues = np.array(moving.bvalues)
        self.roi_log_s0 = maps.log_s0.data.reshape(-1)[roi_idx]
        self.roi_adc = maps.adc.data.reshape(-1)[roi_idx]
        # per slab: its planes x0..x1-1, its part k0..k1-1 of the ROI and,
        # row g, that part's flat indices in image g of a group's raveled
        # slab; a group of several images is one slab
        slabs = _kernels.slabs(dims)
        edges = np.searchsorted(roi_idx, [x0 * plane for x0, _ in slabs] + [n_vox]).tolist()
        images = np.arange(min(self.group, moving.b_count))[:, None]
        self.slabs = [
            (x0, x1, k0, k1, roi_idx[k0:k1] - x0 * plane + (x1 - x0) * plane * images)
            for (x0, x1), k0, k1 in zip(slabs, edges, edges[1:])
        ]
        self.grid = _kernels.coordinate_grid(dims, WORK_DTYPE)
        self.grad_finite = True
        self._scratch = {}

    def scratch(self, lo, hi):
        """The GroupScratch of the thread range of images lo..hi-1."""
        scratch = self._scratch.get((lo, hi))
        if scratch is None:
            scratch = _kernels.GroupScratch(
                min(self.group, hi - lo),
                self.shape[2:],
                max(k1 - k0 for _, _, k0, k1, _ in self.slabs),
                self.target.dtype,
                self.grid,
                max(x1 - x0 for x0, x1, *_ in self.slabs),
            )
            self._scratch[lo, hi] = scratch
        return scratch

    def pred_log(self, i, j, k0, k1, scratch):
        """The predicted log signal of images i..j-1 on ROI voxels
        k0..k1-1, image by image, flat: log_s0 - b * adc in float64,
        rounded to WORK_DTYPE, made in the buffers of scratch, the thread
        range's `_kernels.GroupScratch`."""
        shape = (j - i, k1 - k0)
        wide = scratch.pred_wide[: shape[0] * shape[1]].reshape(shape)
        np.multiply.outer(self.bvalues[i:j], self.roi_adc[k0:k1], out=wide)
        np.subtract(self.roi_log_s0[k0:k1], wide, out=wide)
        pred = scratch.pred[: wide.size]
        np.copyto(pred.reshape(shape), wide, casting="same_kind")
        return pred


def _term_sums(ws, fields_arr, sim_c, mf_c, smooth_w, grad=None, step=None):
    """The fused kernels on every b-value image, one range of images per thread.

    Makes sim_c * d(L1 sum)/du + mf_c * d(residual sum)/du + smooth_w *
    d(smoothness sum)/du, shaped like fields_arr, group by group, and
    returns the raw sums (similarity, model fit, smoothness), added in
    b-value order.  A zero prefactor adds only signed zeros, so one term is
    isolated exactly by zeroing the other two prefactors.  Each thread cuts
    its range into groups of ws.group consecutive images and hands each
    group to the kernels in one call per slab of ws.slabs, in x order; a
    group of several images is one slab.  Each call's gradient goes into
    the gradient buffer of the range's `_kernels.GroupScratch`, which the
    next call overwrites, and is copied into its slice of grad when grad
    is given.

    With step (`registration.AdamStep`), the thread calls
    step.apply(x, lo, hi, scratch) on the group's flat range lo..hi-1 of
    the raveled fields_arr before the kernels read it, so every plane a
    slab's warp or smoothness reads is stepped, and step.fold(g, lo, hi,
    scratch, finite_row) on each call's flat gradient after, which folds it
    into the moments and checks it for non-finite entries: once for whole
    images, and once per component for a slab, whose components lie a
    component volume apart in x.  scratch is the flat rows of the range's
    GroupScratch, free between kernel calls, and ws.grad_finite records
    whether every entry was finite.  Every range's scratch is made here, before the ranges are
    handed out, so no array outlives a task that made it on a helper
    thread.
    """
    per_image = fields_arr[0].size
    n_vox = per_image // 3
    nx = fields_arr.shape[2]
    plane = n_vox // nx
    flat_x = fields_arr.reshape(-1)

    def bvalue_range(lo, hi):
        scratch = ws.scratch(lo, hi)
        sums = []
        finite = True
        for i in range(lo, hi, ws.group):
            j = min(i + ws.group, hi)
            if step is not None:
                step.apply(flat_x, i * per_image, j * per_image, scratch.flat)
            for x0, x1, k0, k1, roi in ws.slabs:
                g = scratch.gradient(j - i, x1 - x0)
                g.fill(0.0)
                terms = _match_terms(
                    ws.moving[i:j],
                    fields_arr[i:j, :, x0:x1],
                    ws.target[i:j, x0:x1],
                    ws.pred_log(i, j, k0, k1, scratch),
                    roi[: j - i].reshape(-1),
                    FLOOR_EPS,
                    sim_c,
                    mf_c,
                    g,
                    scratch,
                    x0,
                )
                smooth = _smooth_loss_grad(fields_arr[i:j], g, smooth_w, scratch, x0)
                if grad is not None:
                    grad[i:j, :, x0:x1] = g
                if step is None:
                    continue
                # the flat ranges of x that g covers: one for whole images,
                # one per component for a slab
                if x1 - x0 == nx:
                    runs = [(g.reshape(-1), i * per_image)]
                else:
                    slab = i * per_image + x0 * plane
                    runs = [(g[0, c].reshape(-1), slab + c * n_vox) for c in range(3)]
                for row, start in runs:
                    ok = scratch.clamped.reshape(-1)[: row.size]
                    ok = step.fold(row, start, start + row.size, scratch.flat, ok)
                    finite = finite and ok
            sums.extend(zip(*terms, smooth))
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
    ws: Workspace, fields_arr: np.ndarray, alpha2: float, grad=None, step=None
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
    LossBreakdown.  step is the optimizer's `registration.AdamStep` or
    None: given one, each group of images takes the pending step on its
    slice of fields_arr just before it is evaluated, and folds its
    gradient into the step's moments as soon as it is made, in the group's
    own thread (`_term_sums`), so a step and an evaluation make one pass
    over the images; ws.grad_finite then tells whether every gradient
    entry is finite.  With grad None each group's gradient lives only in
    the workspace's group buffer until it is folded, so no whole gradient
    is made.
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
        if arr is None:
            continue
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

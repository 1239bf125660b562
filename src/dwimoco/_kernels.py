"""Low-level numeric kernels shared by the warping and loss machinery.

Each kernel has one vectorized numpy implementation, which works in the
float dtype of its array arguments: float32 for the registration's images,
fields, gradient and Adam state (`objective.WORK_DTYPE`), float64 for the
warps of `volume`.  Every reduction accumulates in float64
(`dtype=np.float64`), whatever the dtype of the values it adds.  The inner
registration loop calls the kernels hundreds to thousands of times per
case, so they work on raw arrays, write into buffers they own or the
caller passes, and accumulate gradients into caller-owned buffers instead
of allocating per-term results.  The tests check them against independent
code: the scalar `volume.trilinear_sample`, the per-term losses in
`objective`, `np.diff`, the textbook Adam step and finite differences.
Each kernel rounds exactly as the per-voxel formula in its docstring,
evaluated in the written order in its working dtype, does; at most the
sign of a zero gradient entry differs.  So regrouping the array operations
of a kernel, as long as every voxel still sees the same operations,
changes no result bit.

That is what lets the work use several threads without changing a bit.
`fan_out_ranges` is the one thread primitive: it splits n items into one
contiguous range per thread of the process's budget (the CPUs it may run
on, or its share of them in a cohort worker), runs the first range in the
calling thread and the others on the process's one helper pool, and
returns the results in range order.  It has three users:

- `objective` gives each thread one range of b-value images, which the
  thread cuts into groups of consecutive images, as many as fit
  GROUP_VOXELS and at least one.  For each group it takes the optimizer's
  pending Adam step on the group's slice of the fields (`adam_update`, the
  serial blocked step, called once per group), hands the group to the
  kernels in one call and checks the group's gradient for non-finite
  entries; each image writes only its own slices, and the returned
  per-image sums are added in b-value order;
- `pipeline` warps the input by the optimizer's field stack, one
  `warp3d` per b-value image;
- `signal_model` gives each thread one range of the voxels of every decay
  fit, LLS and the robust L1 fit.

numpy releases the interpreter lock inside its array loops, so the threads
overlap.  A budget of 1, or work too small to pay for the handoffs
(FAN_OUT_MIN_ELEMENTS per range), is the plain serial loop.  The pool
holds budget - 1 threads and is made once per process and budget.
`objective` and `pipeline` make every array a task keeps, and its
scratch, on the calling thread before they hand the ranges out
(`thread_ranges` tells them the ranges): glibc keeps what a helper thread
allocates in that thread's own arena, which then stays resident beside the
main one.  Their tasks reach the kernels through names the modules bind at
import, so a tracer that wraps the names in this module sees no call from
a helper thread.

The objective's kernels, `match_terms` and `smooth_loss_grad`, take a
group of G images and their displacement fields component-major, as a
C-contiguous (G, 3, nx, ny, nz) array, so every full-volume pass over a
field or its gradient reads or writes one contiguous plane per component.
On a small grid one call covers every image, so the ~170 numpy calls of
an evaluation are paid once per group rather than once per image; on a
large grid a group is one image.  They work in a `GroupScratch` that
`objective` makes once per optimizer pass and thread range, so an
evaluation allocates no full-size array, and every voxel sees the same
operations whatever its group.  `DisplacementField`, the warps and the
case files keep the voxel-major (nx, ny, nz, 3) layout; only the
optimizer's fields, which `pipeline.run_case` carries from pass to pass,
are component-major (`objective.stack_fields`).  Their sample coordinates
add the contiguous rows of the grid's `coordinate_grid`, which the
workspace holds, where `warp3d` adds a broadcast `arange`.  The
model-fit term lives on the ROI, a few percent of the voxels: `match_terms`
takes the ROI as flat voxel indices and computes the floor, the log, the
residual and its gradient coefficient on those voxels alone.  It scatters
the squared residuals into a zeroed full-size row per image before
summing, so each image's sum adds the same values in the same order as a
whole-volume sum.

`field_diff` and `field_diff_adjoint` are each one op over the flat
array at the axis stride s, plus a fill or a negation.  In the difference
the last plane of every row takes a wrong value from the next row's first
plane, which `field_diff` then overwrites with 0.  In the adjoint's one
subtract each row's first plane takes the last plane of the row before,
which `field_diff` left at 0, minus its own; only the array's very first
plane has no row before it, and is negated.  This reads memory order, so
both refuse arrays that are not
C-contiguous, and `objective.loss_and_gradient` checks its buffers up
front.

`warp3d` and `warp3d_with_point_grad` share the index math in `_cell`: one
flat intp base index per voxel, built in integer arithmetic from the
per-axis cell indices and offset by its image's place in a group, and a
constant +1 stride per axis, so the 8 cell corners are 8 gathers from the
raveled volumes.  `warp3d` computes no point gradient, because none of its
callers differentiates the warped values: `pipeline.run_case`, which
resamples the input by the field stack once per outer iteration,
`volume.warp`, which moves the phantoms and serves `objective.total_loss`
(the per-term reference, scored against the maps' reconstruction), and
`volume.compose_displacements`.  The pipeline calls neither of the last
two: only the tests and the benchmark's name bindings in `pipeline` reach
them.  `match_terms` is the one caller
that needs the gradient; the tests use `warp3d_with_point_grad`, a
one-image call of the same code, as its oracle.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

# Elements per block of the Adam step: the 6 block arrays (x, g, m, v and two
# scratch rows) of 256 KiB each in float32 stay in L2 cache across the 13
# passes, and the ~13 numpy calls per block are few enough that two threads
# seldom wait on each other for the interpreter lock.  Taken inside the
# evaluation's per-image tasks on a 2-core x86 host (2 MiB L2 per core), a
# float32 step at 6 b-values cost, on 2 threads, 15.1-15.8 / 8.9-10.1 /
# 7.4-7.9 / 6.3-7.7 ms with blocks of 16384 / 32768 / 65536 / 131072 at
# 96x96x16 (6.1-7.5 ms on 1 thread at 32768-65536), and 0.26 / 0.22 / 0.20 /
# 0.20 ms at 20x20x8 (medians of 30 and 200 evaluations).
ADAM_BLOCK = 1 << 16

# Threads `fan_out_ranges` may use in this process: the CPUs it may run on,
# until `set_thread_budget` gives it a share of them.
_budget = len(os.sched_getaffinity(0))
# (pid, budget, ThreadPoolExecutor of budget - 1 threads), made on first use;
# the pid tells a forked child that the pool's threads stayed behind in its
# parent.
_pool = None
# Array elements each range must hold before `fan_out_ranges` gives it a
# thread.  Two threads hand the interpreter lock back and forth around every
# numpy call, and on small arrays that costs more than the second core saves.
# On 2 cores, `objective.loss_and_gradient` at 6 b-values took, in float64,
# 2.3 ms on 1 thread and 2.7 ms on 2 at 20x20x8, 4.9 and 5.1 ms at 24x24x12,
# 6.4 and 6.1 ms at 28x28x12 and 12.9 and 9.4 ms at 32x32x16: it breaks even
# at about 8k voxels per b-value image, and threads from 7,282 voxels at 6
# b-values (2 ranges of 3 images x 3 components).  In float32 it took 3.9
# and 3.5 ms at 28x28x12 and 6.8 and 5.2 ms at 32x32x16 (medians of 4 runs):
# the same break-even.  `adam_update` breaks even at about 180k elements
# (90k per range) in float64, and in float32 gains little from a second
# thread at any size.
FAN_OUT_MIN_ELEMENTS = 1 << 16

# Corner k of a trilinear cell sits at offsets (k & 1, (k >> 1) & 1, k >> 2)
# from the base voxel, so corner pairs (k, k + 1), k = 0, 2, 4, 6, are the
# x-edges at (y, z) = (0, 0), (1, 0), (0, 1), (1, 1).
_CORNER_BITS = np.array([[k & 1, (k >> 1) & 1, k >> 2] for k in range(8)], dtype=np.intp)

# Voxels of one group of b-value images in `match_terms` and
# `smooth_loss_grad`: `objective` hands them as many whole images at once as
# fit, at least one, so the ~170 numpy calls of an evaluation are paid once
# per group instead of once per image.  The smoothness passes run over the
# whole group while one field (3 planes) fits, and one component plane at a
# time beyond that.  On a 2-core x86 host (2 MiB L2 per core),
# `objective.loss_and_gradient` at 6 b-values took, in float64, 4.3, 2.6 and
# 2.4 ms per call at 20x20x8 with groups of 1, 3 and 6 images (1 image also
# smooths plane by plane there), 13.0, 11.4 and 8.3 ms at 32x32x16 with 1, 2
# and 3 (on 2 threads, 3 images each) and 33.5, 33.5 and 34.6 ms at 64x64x16:
# a group stops paying at about 64k voxels.  In float32 at 64x64x16 it took
# 20.3 and 19.9 ms with groups of 1 and 2 (medians of 4 runs), within the
# noise.  One field's smoothness took, in float64, 0.23 ms plane by plane
# against 0.13 ms whole at 20x20x8, 1.0 against 1.0 ms at 48x48x12, 2.0
# against 3.2 ms at 64x64x16 and 5.8 against 6.9 ms at 96x96x16.
GROUP_VOXELS = 1 << 16

# Full-size rows of a group's scratch: the arrays `_point_grad_parts` holds
# at its peak, 3 fractions, 8 corners, 1 - fx and one edge difference.
_ROWS = 13


class GroupScratch:
    """The buffers `match_terms` and `smooth_loss_grad` work in.

    Sized for groups of up to `images` images on a `dims` grid with
    `roi_voxels` ROI voxels each; a smaller group uses the leading part of
    every row.  The value rows are of the group's float dtype, the two
    index rows intp, so a flat voxel index is exact on any grid.  grid is
    the `coordinate_grid` of dims in that dtype, which the scratches of one
    `objective.Workspace` share read-only; it is made here when not given.
    `objective` makes one per thread range and optimizer pass, so no
    evaluation after the first allocates a full-size array.
    """

    def __init__(self, images, dims, roi_voxels, dtype, grid=None):
        n = images * math.prod(dims)
        self.grid = coordinate_grid(dims, dtype) if grid is None else grid
        self.rows = np.empty((_ROWS, n), dtype)
        self.index = np.empty((2, n), np.intp)
        self.clamped = np.empty((4, n), dtype=bool)
        self.roi = np.empty((3, images * roi_voxels), dtype)
        self.live = np.empty((2, images * roi_voxels), dtype=bool)


def coordinate_grid(dims, dtype):
    """The (3, nx, ny, nz) voxel coordinates of a grid: row a holds each
    voxel's index along axis a, exact in `dtype`."""
    return np.indices(dims, dtype=dtype)


def _coords(planes, out, grid=None):
    """Sample coordinates p + u_a[p] per axis, written into the 3 rows of out.

    planes[a] is component a of the displacement over (..., nx, ny, nz):
    the contiguous planes of component-major fields, or a strided view
    (`np.moveaxis(disp, -1, 0)`) of a (nx, ny, nz, 3) field.  out holds 3
    flat rows of as many elements, of the planes' dtype or wider.  grid is
    the grid's `coordinate_grid`, of out's dtype, added as contiguous rows;
    without it each axis adds a broadcast `arange` of out's dtype.  Either
    way the sum casts nothing and holds the same values.  Returns the rows
    shaped like planes[a].
    """
    shape = planes[0].shape
    coords = []
    for a, n in enumerate(shape[-3:]):
        if grid is None:
            row = np.arange(n, dtype=out[a].dtype).reshape([n if b == a else 1 for b in range(3)])
        else:
            row = grid[a]
        coords.append(np.add(row, planes[a], out=out[a].reshape(shape)))
    return coords


def _cell_base(coords, shape, floor_row, index):
    """Flat index, in one (nx, ny, nz) image, of each sample's cell base voxel.

    coords are the 3 coordinate arrays of `_coords` on a grid of `shape`,
    of any sample count; floor_row is one flat float row and index two
    flat intp rows of that count.  Clamp-to-edge per axis: the coordinate
    is clipped to [0, n-1] and the cell index to [0, n-2], so the upper
    neighbour is always index + 1 (index + 0 on an axis of length 1).  The
    coordinate arrays are overwritten with the fractions in [0, 1].  Each
    axis's cell index is a whole float, converted to intp, and the flat
    index ((ix * ny) + iy) * nz + iz is summed in intp, so it is exact on
    any grid.  Returns index[0]; index[1] is free again.
    """
    i0 = floor_row.reshape(coords[0].shape)
    base, part = (r.reshape(coords[0].shape) for r in index)
    for a, n in enumerate(shape):
        c = np.clip(coords[a], 0.0, n - 1.0, out=coords[a])
        np.floor(c, out=i0)
        np.fmin(i0, max(n - 2, 0), out=i0)  # fmin: a NaN coordinate still indexes
        np.subtract(c, i0, out=c)
        # whole numbers, so each cast is exact
        if a:
            base *= n
            np.copyto(part, i0, casting="unsafe")
            base += part
        else:
            np.copyto(base, i0, casting="unsafe")
    return index[0]


def _cell(vols, coords, rows, index):
    """Corners and fractions of the trilinear cell sampled at each voxel.

    vols is one (nx, ny, nz) volume or a C-contiguous (G, nx, ny, nz) group,
    each image sampled by its own coordinates; coords are the 3 arrays of
    `_coords`, which `_cell_base` turns into the fractions.  rows are 8 flat
    scratch rows of vols.size and index 2 intp ones.  Returns (corners,
    fracs): the 8 flat corner arrays in `_CORNER_BITS` order, which are the
    rows, and the flat x, y and z fractions.  Each corner is one gather
    with the shared base index, the image's offset plus the cell's, from
    the raveled group shifted by that corner's constant offset; 8 separate
    (n,) gathers, not one (8, n) gather, keep the scratch at one row per
    corner.
    """
    shape = vols.shape[-3:]
    base = _cell_base(coords, shape, rows[0], index)
    n_vox = math.prod(shape)
    images = vols.size // n_vox
    if images > 1:
        offsets = base.reshape(images, n_vox)
        offsets += np.arange(images)[:, None] * n_vox
    strides = (shape[1] * shape[2], shape[2], 1)
    steps = _CORNER_BITS @ np.array([s if n > 1 else 0 for s, n in zip(strides, shape)])
    flat = vols.reshape(-1)
    for s, out in zip(steps, rows):
        # the indices are in range; mode "clip" only spares the copy "raise" makes
        np.take(flat[s:], base, out=out, mode="clip")
    return list(rows), [c.reshape(-1) for c in coords]


def _lerp(lo, hi, f, g):
    """lo * g + hi * f with g = 1 - f, written into lo; hi is overwritten."""
    lo *= g
    hi *= f
    lo += hi
    return lo


def warp3d(vol, disp, out=None, scratch=None):
    """Trilinear backward warp: out[p] = vol(p + disp[p]), clamp-to-edge.

    With f and g = 1 - f the cell fractions: c_yz = c_0yz * gx + c_1yz * fx,
    c_z = c_0z * gy + c_1z * fy, out = c_0 * gz + c_1 * fz.  vol is
    float64 and disp float64, as every `volume` caller passes it, or
    float32, which `pipeline` passes and the sum with the float64 grid
    widens exactly.  Writes into out, a C-contiguous float64 array shaped
    like vol, and works in scratch, 11 flat float64 rows of vol.size; both
    are made here when not given, and a caller that warps on helper threads
    passes ones it made on its own thread.  The result holds only its own
    row, and the two intp index rows are views of two float64 rows that are
    free while `_cell` needs them, so the integer index allocates nothing.
    Returns out.
    """
    if out is None:
        out = np.empty(vol.shape)
    if scratch is None:
        scratch = [np.empty(vol.size) for _ in range(11)]
    rows = [*scratch[:3], out.reshape(-1), *scratch[3:]]
    index = [rows[11].view(np.intp), rows[4].view(np.intp)]  # 1 - fx, corner 1
    coords = _coords(np.moveaxis(disp, -1, 0), rows[:3])
    c, (fx, fy, fz) = _cell(vol, coords, rows[3:11], index)
    gx = np.subtract(1.0, fx, out=rows[11])
    c00, c10, c01, c11 = (_lerp(c[k], c[k + 1], fx, gx) for k in (0, 2, 4, 6))
    gy = np.subtract(1.0, fy, out=c[1])  # the upper x-corners are free now
    c0 = _lerp(c00, c10, fy, gy)
    c1 = _lerp(c01, c11, fy, gy)
    _lerp(c0, c1, fz, np.subtract(1.0, fz, out=c[3]))  # c0 is out's row
    return out


def _point_grad_parts(vols, planes, rows, index, clamped, grid):
    """Flat warped values and the 3 flat point-gradient components.

    vols and planes as `_cell` and `_coords` take them, of one float dtype,
    and grid their grid's `coordinate_grid`; rows are 13 flat scratch rows
    of vols.size of that dtype, index 2 intp ones and clamped 4 boolean
    ones.  The values and the parts come back in 4 of the rows; rows[1]
    and rows[2] are free again.
    """
    coords = _coords(planes, rows[:3], grid)
    for c, n, clamp in zip(coords, vols.shape[-3:], clamped):
        clamp = np.less(c, 0.0, out=clamp.reshape(c.shape))
        clamp |= np.greater(c, n - 1.0, out=clamped[3].reshape(c.shape))
    c, (fx, fy, fz) = _cell(vols, coords, rows[3:11], index)
    gx = np.subtract(1.0, fx, out=rows[11])
    # each x-edge: its difference into a free row, then its lerp in place,
    # which frees the edge's upper corner for the next difference
    spare = rows[12]
    d, e = [], []
    for k in (0, 2, 4, 6):
        d.append(np.subtract(c[k + 1], c[k], out=spare))
        e.append(_lerp(c[k], c[k + 1], fx, gx))
        spare = c[k + 1]
    (d00, d10, d01, d11), (c00, c10, c01, c11) = d, e
    gy = np.subtract(1.0, fy, out=fx)
    dy0 = np.subtract(c10, c00, out=gx)
    dy1 = np.subtract(c11, c01, out=spare)
    c0 = _lerp(c00, c10, fy, gy)
    c1 = _lerp(c01, c11, fy, gy)
    ex0 = _lerp(d00, d10, fy, gy)
    ex1 = _lerp(d01, d11, fy, gy)
    gz = np.subtract(1.0, fz, out=fy)
    dz = np.subtract(c1, c0, out=gy)
    out = _lerp(c0, c1, fz, gz)
    dx = _lerp(ex0, ex1, fz, gz)
    dy = _lerp(dy0, dy1, fz, gz)
    for part, clamp in zip((dx, dy, dz), clamped):
        np.copyto(part, 0.0, where=clamp)
    return out, (dx, dy, dz)


def warp3d_with_point_grad(vol, disp):
    """Warp plus the derivative of each sample w.r.t. its sample coordinate.

    Returns (out, dout) with dout[..., a] = d out / d coordinate_a, set to
    +0.0 where coordinate a was clamped, outside [0, n_a - 1].  out is
    `warp3d`, bit for bit.  With the edge differences d_yz = c_1yz - c_0yz:
    dout_x = (d_00 * gy + d_10 * fy) * gz + (d_01 * gy + d_11 * fy) * fz,
    dout_y = (c_10 - c_00) * gz + (c_11 - c_01) * fz,
    dout_z = c_1 - c_0.  Works in the float dtype of vol.
    """
    scratch = GroupScratch(1, vol.shape, 0, vol.dtype)
    out, parts = _point_grad_parts(
        vol, np.moveaxis(disp, -1, 0), scratch.rows, scratch.index, scratch.clamped, scratch.grid
    )
    return out.reshape(vol.shape).copy(), np.stack(parts, axis=-1).reshape(vol.shape + (3,))


def match_terms(vols, disp, target, pred_log, roi, floor_eps, sim_c, mf_c, grad_out, scratch):
    """Fused similarity + model-fit contribution of a group of b-value images.

    vols and target are C-contiguous (G, nx, ny, nz) stacks of G images, disp
    and grad_out their component-major (G, 3, nx, ny, nz) fields.  roi holds
    the ascending flat indices of the ROI voxels in the raveled group (the
    `np.flatnonzero` of G stacked masks) and pred_log the predicted log
    signal on them, in the same order; scratch is a `GroupScratch` that
    fits the group.  Warps each image by its field and returns two (G,)
    arrays: per image, the L1 distance to its target image (sum over its
    voxels) and the squared log residual against pred_log (sum over its roi
    voxels).  Adds the chain-ruled gradient w.r.t. `disp` into `grad_out`
    using the prefactors sim_c (applied to the L1 subgradient) and mf_c
    (applied to 2 * residual / warped_value).  Warped values below
    floor_eps contribute log(floor_eps) and a zero model-fit gradient.

    Per voxel, with w the warped value, r = w - target, wfl = w if
    w > floor_eps else floor_eps and res = log(wfl) - pred_log on roi, 0
    elsewhere: coeff = sign(r) * sim_c, plus (mf_c * 2 * res) / wfl where
    roi and w > floor_eps; grad_out[a] += dout_a * coeff, with dout as in
    `warp3d_with_point_grad`.  Only the sign of a zero gradient entry can
    differ from that formula.  The model-fit steps run on the roi voxels
    alone, and their squares are summed in a zeroed full-size row per
    image, in the order of a sum over the whole image.  Both sums
    accumulate in float64.  A voxel's bits do not depend on the size of
    its group.
    """
    images = vols.shape[0]
    rows, index, clamped = (
        a[:, : vols.size] for a in (scratch.rows, scratch.index, scratch.clamped)
    )
    w, parts = _point_grad_parts(
        vols, np.moveaxis(disp, 1, 0), rows, index, clamped, scratch.grid
    )
    r = np.subtract(w, target.reshape(-1), out=rows[1])
    coeff = np.sign(r, out=rows[2])
    coeff *= sim_c
    sim_sums = np.abs(r, out=r).reshape(images, -1).sum(axis=1, dtype=np.float64)

    wfl, res, sq_roi = scratch.roi[:, : roi.size]
    live, dead = scratch.live[:, : roi.size]
    np.take(w, roi, out=wfl, mode="clip")
    np.greater(wfl, floor_eps, out=live)
    np.copyto(wfl, floor_eps, where=np.logical_not(live, out=dead))
    np.log(wfl, out=res)
    res -= pred_log
    sq = r
    sq.fill(0.0)
    np.put(sq, roi, np.multiply(res, res, out=sq_roi), mode="clip")
    mf_sums = sq.reshape(images, -1).sum(axis=1, dtype=np.float64)
    res *= mf_c * 2.0
    res /= wfl
    coeff_roi = np.take(coeff, roi, out=sq_roi, mode="clip")
    np.add(coeff_roi, res, out=coeff_roi, where=live)
    np.put(coeff, roi, coeff_roi, mode="clip")

    for a, part in enumerate(parts):
        part *= coeff
        grad_a = grad_out[:, a]
        grad_a += part.reshape(grad_a.shape)
    return sim_sums, mf_sums


def _flat(arr, axis):
    """A flat view of a C-contiguous array and the flat distance between
    neighbours along `axis`; ValueError if the array is not C-contiguous."""
    return arr.reshape(-1, copy=False), math.prod(arr.shape[axis + 1 :])


def field_diff(u, axis, out):
    """Forward difference of a C-contiguous array along one of its axes.

    out[i] = u[i+1] - u[i] below the last plane, 0 on it: the bits of
    np.diff padded with a zero plane.  Writes into `out` (shaped like u,
    C-contiguous too) and returns it.  An axis of one voxel differences
    to 0.
    """
    (fu, s), (fo, _) = _flat(u, axis), _flat(out, axis)
    np.subtract(fu[s:], fu[:-s], out=fo[:-s])
    out[(slice(None),) * axis + (-1,)].fill(0.0)
    return out


def field_diff_adjoint(w, axis, out):
    """Adjoint of `field_diff` on the w whose last plane along the axis is 0.

    Writes into `out` (shaped like w; both C-contiguous) and returns it:
    out[0] = -w[0] and out[i] = w[i-1] - w[i] from 1 on, so that
    <diff(a), w> == <a, adjoint(w)> for every a.
    """
    (fw, s), (fo, _) = _flat(w, axis), _flat(out, axis)
    np.subtract(fw[:-s], fw[s:], out=fo[s:])
    np.negative(fw[:s], out=fo[:s])
    return out


def smooth_loss_grad(u, grad_out, weight, scratch):
    """Sum of the squared forward differences of each field of a group.

    u and grad_out are component-major (G, 3, nx, ny, nz) C-contiguous
    fields and scratch a `GroupScratch` that fits them.  Accumulates
    weight * d(loss)/d(u) into grad_out and returns the G raw losses, a
    list: the squares of `field_diff` of every component along x, y and z.
    Each loss adds its field's per-(component, axis) row sums, accumulated
    in float64, in component-major order (u_0 along x, y, z, then u_1, then
    u_2), and each component of grad_out receives (weight * 2) *
    adjoint(diff) along x, then y, then z.  The passes run over the whole group while one field
    fits GROUP_VOXELS, and one component plane at a time beyond that, so
    the scratch stays cache-sized; every row sum and gradient entry keeps
    its bits either way.
    """
    planes = u.reshape((-1,) + u.shape[2:])
    grads = grad_out.reshape(planes.shape)
    step = len(planes) if 3 * planes[0].size <= GROUP_VOXELS else 1
    size = step * planes[0].size
    d, work = (
        scratch.rows[k : k + 3].reshape(-1)[:size].reshape((step,) + planes.shape[1:])
        for k in (0, 3)
    )
    sums = np.empty((len(planes), 3))
    k = weight * 2.0
    for lo in range(0, len(planes), step):
        block, grad_block = planes[lo : lo + step], grads[lo : lo + step]
        for a in range(3):
            field_diff(block, a + 1, d)
            np.multiply(d, d, out=work)
            work.reshape(step, -1).sum(axis=1, dtype=np.float64, out=sums[lo : lo + step, a])
            field_diff_adjoint(d, a + 1, work)
            work *= k
            grad_block += work
    losses = []
    for field_sums in sums.reshape(-1, 9):
        loss = 0.0
        for s in field_sums:
            loss += float(s)
        losses.append(loss)
    return losses


def set_thread_budget(n):
    """Let `fan_out_ranges` use up to n threads in this process (n >= 1)."""
    global _budget
    if n < 1:
        raise ValueError(f"thread budget must be >= 1, got {n}")
    _budget = n


def _helpers():
    """This process's pool of `_budget` - 1 helper threads, made on first use
    and made again after a fork or a change of budget."""
    global _pool
    key = (os.getpid(), _budget)
    if _pool is None or _pool[:2] != key:
        _pool = key + (ThreadPoolExecutor(max_workers=_budget - 1, thread_name_prefix="dwimoco"),)
    return _pool[2]


def near_equal_ranges(lo, hi, parts):
    """lo..hi cut into `parts` contiguous (start, stop) ranges, as even as
    whole items allow: the thread ranges, and the cache-sized blocks of a
    range with parts = ceil((hi - lo) / block size)."""
    edges = [lo + i * (hi - lo) // parts for i in range(parts + 1)]
    return list(zip(edges, edges[1:]))


def thread_ranges(n, elements):
    """The contiguous ranges of 0..n-1 that `fan_out_ranges` hands out.

    The n items (b-value images, voxels) cover `elements` array elements in
    all.  They are split into `near_equal_ranges`, at most one per thread
    of the budget and only as many as hold FAN_OUT_MIN_ELEMENTS elements
    each, so a budget of 1 or a small n is one range: the serial loop.
    """
    parts = max(1, min(_budget, n, elements // FAN_OUT_MIN_ELEMENTS))
    return near_equal_ranges(0, n, parts)


def fan_out_ranges(task, n, elements):
    """[task(lo, hi), ...] over the `thread_ranges` of n items.

    The calling thread runs the first range and the helpers the others.
    Once every range has finished, the results come back in range order, or
    the error of the first range that raised is raised.  Tasks that write
    only their own outputs give the bits of the serial loop.  A task must
    not call `fan_out_ranges`: the helpers would wait on themselves.
    """
    first, *rest = thread_ranges(n, elements)
    if not rest:  # no handoff: a 1-voxel curve fit calls this once per solve
        return [task(*first)]
    pool = _helpers()
    futures = [pool.submit(task, lo, hi) for lo, hi in rest]
    try:
        result = task(*first)
    finally:
        wait(futures)
    return [result] + [fut.result() for fut in futures]


def adam_update(x, g, m, v, lr, beta1, beta2, eps, bc1, bc2, scratch):
    """One in-place Adam step on flat arrays, serial; bc1/bc2 are 1 - beta^t.

    m = m * beta1 + (1 - beta1) * g, v = v * beta2 + ((1 - beta2) * g) * g,
    x -= (lr * (m / bc1)) / (sqrt(v / bc2) + eps).  It works through the
    arrays in near-equal blocks of at most ADAM_BLOCK elements, in two
    block-sized rows of scratch, a flat array of x's dtype with at least
    2 * min(x.size, ADAM_BLOCK) elements, so every block stays in cache
    across all the steps and nothing is allocated.  Each element sees the
    same operations in any block or call, so the step may be taken range by
    range: `objective` takes it one group of b-value images at a time, in
    the group's own thread.
    """
    n = x.size
    k = min(n, ADAM_BLOCK)
    rows = scratch[: 2 * k].reshape(2, k)
    for i, j in near_equal_ranges(0, n, -(-n // ADAM_BLOCK)):
        xb, gb, mb, vb = x[i:j], g[i:j], m[i:j], v[i:j]
        s, t = rows[:, : j - i]
        np.multiply(gb, 1.0 - beta1, out=s)
        mb *= beta1
        mb += s
        np.multiply(gb, 1.0 - beta2, out=s)
        s *= gb
        vb *= beta2
        vb += s
        np.divide(mb, bc1, out=s)
        s *= lr
        np.divide(vb, bc2, out=t)
        np.sqrt(t, out=t)
        t += eps
        s /= t
        xb -= s

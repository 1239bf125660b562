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
returns the results in range order.  Each range works in scratch that the
caller's factory makes for it, on the calling thread, before any range is
handed out (`fan_out_ranges` says why).  It has three users:

- `objective` gives each thread one range of b-value images, which the
  thread cuts into groups of consecutive images, as many as fit
  GROUP_VOXELS and at least one.  For each group it moves the group's
  slice of the fields by the optimizer's pending Adam step (`adam_step`),
  then hands the group to the kernels in one call, or, for an image
  larger than GROUP_VOXELS, in one call per slab of x-planes (`slabs`).
  Each call writes its gradient into the range's `GroupScratch`, which
  the thread checks for non-finite entries and folds into its slice of
  the Adam moments (`adam_moments`) before the next call; both Adam
  kernels are serial and blocked, so no whole gradient exists.  Each image
  writes only its own slices, and the returned per-image sums are added in
  b-value order;
- `volume.warp_series` divides a series by a scale and warps it by one
  field per b-value image, one `warp3d` per image, slab by slab, in an
  image row and 11 slab rows per range;
- `signal_model` gives each thread one range of the voxels of every decay
  fit, LLS and the robust L1 fit with its R^2 map, in one block's scratch
  per range.

numpy releases the interpreter lock inside its array loops, so the threads
overlap.  A budget of 1, or work too small to pay for the handoffs
(FAN_OUT_MIN_ELEMENTS per range), is the plain serial loop.  The pool
holds budget - 1 threads and is made once per process and budget.  The
tasks of `objective` and `volume` reach the kernels through names the
modules bind at import, so a tracer that wraps the names in this module
sees no call from a helper thread.

The objective's kernels, `match_terms` and `smooth_loss_grad`, take a
group of G images and their displacement fields component-major, as a
C-contiguous (G, 3, nx, ny, nz) array, so every full-volume pass over a
field or its gradient reads or writes one contiguous plane per component.
On a small grid one call covers every image, so the ~170 numpy calls of
an evaluation are paid once per group rather than once per image; on a
grid of more than GROUP_VOXELS voxels a call covers one slab of one image:
whole x-planes, whose samples the warp gathers from the whole image and
whose smoothness reads one more plane of the field beyond each end.
Their sums are `RowSums`, which carry each image's float64 sums from slab
to slab with the bits of one sum over the whole image.  They work in a
`GroupScratch` that `objective` makes once per optimizer pass and thread
range, sized to GROUP_VOXELS voxels, or to one plane where a plane is
larger, so an evaluation allocates no full-size array and the scratch is
bounded at any grid, and every voxel sees the same operations whatever
its group or slab.  `DisplacementField`, the warps and the
case files keep the voxel-major (nx, ny, nz, 3) layout; only the
optimizer's fields, which `pipeline.run_case` carries from pass to pass
and the optimizer steps in place, are component-major
(`objective.stack_fields`).  Their sample coordinates
add the contiguous rows of the grid's `coordinate_grid`, which the
workspace holds, where `warp3d` adds a broadcast `arange`.  The
model-fit term lives on the ROI, a few percent of the voxels: `match_terms`
takes the ROI as flat voxel indices and computes the floor, the log, the
residual and its gradient coefficient on those voxels alone.  It scatters
the squared residuals into a zeroed full-size row per image before
summing, so each image's sum adds the same values in the same order as a
whole-volume sum.

`field_diff` and `field_diff_adjoint` are each one op over the flat
array at the axis stride s, plus a fill or a negation; a slab's three
components, which lie one component volume apart, are three such rows
in one op.  In the difference the last plane of every row takes a wrong
value from the next row's first plane, which `field_diff` then overwrites
with 0.  In the adjoint's one subtract each row's first plane takes the
last plane of the row before, which `field_diff` left at 0, minus its
own; only the array's very first plane has no row before it, and is
negated.  This reads memory order, so both refuse arrays whose rows are
not C-contiguous, and `objective.loss_and_gradient` checks its buffers up
front.

`warp3d` and `warp3d_with_point_grad` share the index math in `_cell`: one
flat intp base index per voxel, summed exactly in float64 from the
per-axis cell indices in rows that are free at that point, cast to intp
once and offset by its image's place in a group, and a constant +1 stride
per axis, so the 8 cell corners are 8 gathers from the
raveled volumes.  `warp3d` computes no point gradient, because none of its
callers differentiates the warped values: `volume.warp_series`, through
which `pipeline.run_case` resamples the input by the field stack once per
outer iteration and `objective.total_loss` (the per-term reference,
scored against the maps' reconstruction) warps its series, `volume.warp`,
which moves the phantoms, and `volume.compose_displacements`, which only
the tests and the benchmark's name binding in `pipeline` reach.
`match_terms` is the one caller that needs the gradient; the tests use
`warp3d_with_point_grad`, a one-image call of the same code, as its
oracle.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

# Elements per block of the Adam kernels: the block arrays of the moment fold
# (g, m, v and one scratch row) and of the step (x, m, v and two scratch rows)
# of 256 KiB each in float32 stay in L2 cache across each kernel's 7 passes,
# and its 7 numpy calls per block are few enough that two threads seldom
# wait on each other for the interpreter lock.  Taken whole (fold and move,
# before they were split) inside the evaluation's per-image tasks on a 2-core
# x86 host (2 MiB L2 per core), a float32 step at 6 b-values cost, on 2
# threads, 15.1-15.8 / 8.9-10.1 / 7.4-7.9 / 6.3-7.7 ms with blocks of
# 16384 / 32768 / 65536 / 131072 at 96x96x16 (6.1-7.5 ms on 1 thread at
# 32768-65536), and 0.26 / 0.22 / 0.20 / 0.20 ms at 20x20x8 (medians of 30
# and 200 evaluations).
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

# Voxels of one call of `match_terms` and `smooth_loss_grad`, and of each
# step of `warp3d`: `objective` hands the kernels as many whole images at
# once as fit, so the ~170 numpy calls of an evaluation are paid once per
# group instead of once per image, and an image larger than this in
# `slabs` of whole x-planes, so a call's scratch is bounded by this at any
# grid.  The smoothness passes run over the whole group while one field (3
# planes) fits, and one field, or its slab, at a time beyond that.  On a
# 2-core x86 host (2 MiB L2 per core),
# `objective.loss_and_gradient` at 6 b-values took, in float64, 4.3, 2.6 and
# 2.4 ms per call at 20x20x8 with groups of 1, 3 and 6 images (1 image also
# smooths plane by plane there), 13.0, 11.4 and 8.3 ms at 32x32x16 with 1, 2
# and 3 (on 2 threads, 3 images each) and 33.5, 33.5 and 34.6 ms at 64x64x16:
# a group stops paying at about 64k voxels.  In float32 at 64x64x16 it took
# 20.3 and 19.9 ms with groups of 1 and 2 (medians of 4 runs), within the
# noise.  At 96x96x16, in float32 with the Adam step, it took 69.0, 46.2,
# 36.0 and 36.2 ms on 2 threads and 62.5, 57.3, 51.2 and 59.3 ms on 1 with
# this bound at 16k, 32k and 64k voxels (slabs of 10, 20 and 32 planes) and
# at one image (medians of 40 calls): slabs stay near this bound.  One
# field's smoothness in float32 took 0.62 ms plane by plane against 0.48 ms
# whole at 48x48x12 and 1.20 against 1.27 ms at 64x64x16.
GROUP_VOXELS = 1 << 16

# Elements per block of the kernels' float64 sums (`RowSums`): numpy's
# default ufunc buffer, through which it casts a float32 row it sums into
# float64, so a float32 row's sum has the bits of numpy's own.
SUM_BLOCK = 1 << 13

# Full-size rows of a group's scratch: the arrays `_point_grad_parts` holds
# at its peak, 3 fractions, 8 corners, 1 - fx and one edge difference.
_ROWS = 13


def slabs(dims):
    """The (x0, x1) x-plane ranges in which the kernels take one image.

    The whole image, (0, nx), when it has at most GROUP_VOXELS voxels;
    else `near_equal_ranges` of whole x-planes, as few as keep each slab
    within GROUP_VOXELS voxels, and at least one plane each, so a plane
    larger than GROUP_VOXELS is a slab of its own.
    """
    plane = dims[1] * dims[2]
    return near_equal_ranges(0, dims[0], -(-dims[0] // max(1, GROUP_VOXELS // plane)))


def slab_voxels(dims):
    """The voxels of the largest of `slabs(dims)`: what a kernel call's
    scratch rows must hold for one image of dims."""
    return max(x1 - x0 for x0, x1 in slabs(dims)) * dims[1] * dims[2]


class RowSums:
    """Float64 sums of rows that a kernel hands over in consecutive pieces.

    The sum of a row is the sequential float64 sum, from 0, of the pairwise
    sums numpy makes of its consecutive SUM_BLOCK-element blocks, the last
    one partial.  numpy sums a float32 row into float64 in buffers of
    SUM_BLOCK elements and adds each buffer's pairwise sum to its
    accumulator in turn, so a float32 row's sum has the bits of numpy's
    `sum(dtype=np.float64)` of the whole row, and a row of at most
    SUM_BLOCK elements is one pairwise sum in any dtype.  `add` takes the
    next piece of some rows; a block that a piece leaves unfinished waits
    in a carry row until the next piece completes it, so a sum keeps its
    bits wherever its row is cut.  totals holds the sums as Python floats.
    """

    def __init__(self, count, dtype, pieces):
        """count rows of dtype values; carry rows only when pieces is true,
        since a row handed over whole leaves no block unfinished."""
        self.totals = [0.0] * count
        self.carry = np.empty((count, SUM_BLOCK), dtype) if pieces else None

    def add(self, lo, rows, start, last):
        """Add rows, a (g, m) array, to the sums lo..lo+g-1: the elements
        start..start+m-1 of each row, the row's last ones when last.  A
        piece with start 0 begins the sums again."""
        g, m = rows.shape
        hi = lo + g
        blocks = []  # (g,) float64 block sums, in row order
        head = start % SUM_BLOCK
        t = min(SUM_BLOCK - head, m) if head else 0
        if t:
            carry = self.carry[lo:hi, : head + t]
            carry[:, head:] = rows[:, :t]
            if head + t == SUM_BLOCK or last:
                blocks.append(carry.sum(axis=1, dtype=np.float64))
        k = (m - t) // SUM_BLOCK
        if k:
            full = rows[:, t : t + k * SUM_BLOCK].reshape(g, k, SUM_BLOCK)
            blocks.extend(full.sum(axis=2, dtype=np.float64).T)
        rest = t + k * SUM_BLOCK
        if rest < m:
            if last:
                blocks.append(rows[:, rest:].sum(axis=1, dtype=np.float64))
            else:
                self.carry[lo:hi, : m - rest] = rows[:, rest:]
        totals = self.totals[lo:hi] if start else [0.0] * g
        for block in blocks:
            totals = [total + s for total, s in zip(totals, block.tolist())]
        self.totals[lo:hi] = totals


class GroupScratch:
    """The buffers `match_terms` and `smooth_loss_grad` work in.

    Sized for calls of up to `images` whole images on a `dims` grid, or,
    with planes below nx, for one image's slabs of up to `planes` x-planes,
    with `roi_voxels` ROI voxels per image or slab; a smaller call uses the
    leading part of each buffer, laid out as the full one is, so its rows
    stay consecutive.  The value rows are of the float dtype and the index
    row intp, so a flat voxel index is exact on any grid.  flat holds the
    value rows, the smoothness's buffers of one field's slab with a halo
    plane on each side, and at least the two ADAM_BLOCK-element rows the
    Adam kernels take over the fields of `images` images, so `objective`
    can lend it to them between kernel calls.  grad holds a call's
    component-major gradient (`gradient`), which `objective` fills and
    folds into the optimizer's moments before the next call.  roi and live
    hold `match_terms`' value rows and flags on a call's ROI voxels; the
    predicted logs it reads are `objective.Workspace.pred_log`'s, made once
    per pass.  sums and smooth_sums carry the `RowSums` of
    `match_terms` and `smooth_loss_grad` from slab to slab of an image.
    grid is the `coordinate_grid` of dims in that dtype, which the
    scratches of one `objective.Workspace` share read-only; it is made
    here when not given.  `objective` makes one per thread range and
    optimizer pass, so no evaluation after the first allocates an array of
    more than a few voxels.
    """

    def __init__(self, images, dims, roi_voxels, dtype, grid=None, planes=None):
        planes = dims[0] if planes is None else planes
        n = images * planes * dims[1] * dims[2]
        self.grid = coordinate_grid(dims, dtype) if grid is None else grid
        adam = 2 * min(3 * images * math.prod(dims), ADAM_BLOCK)
        smooth = 6 * images * (planes + 2) * dims[1] * dims[2]
        self.flat = np.empty(max(_ROWS * n, adam, smooth), dtype)
        self.rows = self.flat[: _ROWS * n].reshape(_ROWS, n)
        self.index = np.empty(n, np.intp)
        self.clamped = np.empty((3, n), dtype=bool)
        self.roi = np.empty((3, images * roi_voxels), dtype)
        self.live = np.empty((2, images * roi_voxels), dtype=bool)
        self.grad = np.empty(3 * n, dtype)
        pieces = planes < dims[0]
        self.sums = RowSums(2 * images, dtype, pieces)
        self.smooth_sums = RowSums(9 * images, dtype, pieces)

    def gradient(self, images, planes):
        """The C-contiguous (images, 3, planes, ny, nz) gradient of one
        call, over the start of grad."""
        shape = (images, 3, planes) + self.grid.shape[2:]
        return self.grad[: math.prod(shape)].reshape(shape)


def _leading(buf, count):
    """As many rows of count elements as the 2-d buf has, laid out
    consecutively from the start of its memory."""
    return buf.reshape(-1)[: len(buf) * count].reshape(len(buf), count)


def coordinate_grid(dims, dtype):
    """The (3, nx, ny, nz) voxel coordinates of a grid: row a holds each
    voxel's index along axis a, exact in `dtype`."""
    return np.indices(dims, dtype=dtype)


def _coords(planes, out, grid=None, x0=0):
    """Sample coordinates p + u_a[p] per axis, written into out.

    planes is the (3, ..., sx, ny, nz) displacement over the x-planes
    x0..x0+sx-1 of a grid, component first: the contiguous planes of
    component-major fields, or a strided view (`np.moveaxis(disp, -1, 0)`)
    of a (nx, ny, nz, 3) field.  out is a (3, n) array of the n samples of
    each component, its rows C-contiguous, of the planes' dtype or wider.
    grid is the same planes of the grid's `coordinate_grid`, of out's
    dtype, added to all three components in one call, which takes a
    C-contiguous out; without it each axis adds a broadcast `arange` of
    out's dtype, from x0 along x.  Either way the sum casts nothing and
    holds the same values.  Returns out.
    """
    if grid is not None:
        grid = grid.reshape(grid.shape[:1] + (1,) * (planes.ndim - grid.ndim) + grid.shape[1:])
        np.add(grid, planes, out=out.reshape(planes.shape, copy=False))
        return out
    shape = planes[0].shape
    for a, n in enumerate(shape):
        first = x0 if a == 0 else 0
        row = np.arange(first, first + n, dtype=out.dtype)
        row = row.reshape([n if b == a else 1 for b in range(3)])
        np.add(row, planes[a], out=out[a].reshape(shape))
    return out


@functools.lru_cache(maxsize=8)
def _bounds(shape, dtype):
    """(3, 1) columns, in dtype, of the largest coordinate (n_a - 1) and
    the largest cell index (max(n_a - 2, 0)) per axis of a grid of shape;
    read-only, since every call with the same grid shares them."""
    columns = []
    for values in ([n - 1.0 for n in shape], [max(n - 2, 0) for n in shape]):
        column = np.array(values, dtype).reshape(3, 1)
        column.flags.writeable = False
        columns.append(column)
    return tuple(columns)


def _cell_base(coords, shape, floors, wide, index):
    """Flat index, in one (nx, ny, nz) image, of each sample's cell base voxel.

    coords is the (3, n) array of `_coords` on a grid of `shape`, for any
    sample count n; floors is a (3, n) array of its dtype, wide two flat
    float64 rows and index one flat intp row of n elements.  Clamp-to-edge
    per axis: the coordinate is clipped to [0, n_a - 1] and the cell index
    to [0, n_a - 2], so the upper neighbour is always index + 1 (index + 0
    on an axis of length 1); each step takes the three axes in one call,
    against a column of their bounds in coords' dtype.  The coordinates
    are overwritten with the fractions in [0, 1].  Each axis's cell index
    is a whole float, copied into wide[1] (a plain cast, which needs no
    ufunc buffer), and the flat index ((ix * ny) + iy) * nz + iz is summed
    in wide[0]: whole numbers below 2**53, so every sum is exact on any
    grid that fits in memory, and the one cast to intp is too.  Returns
    index; wide and floors are free again.
    """
    top, cell_top = _bounds(tuple(shape), coords.dtype)
    np.clip(coords, 0.0, top, out=coords)
    np.floor(coords, out=floors)
    np.fmin(floors, cell_top, out=floors)  # fmin: a NaN coordinate still indexes
    np.subtract(coords, floors, out=coords)
    base, part = wide
    np.copyto(base, floors[0])
    for a in (1, 2):
        base *= shape[a]
        np.copyto(part, floors[a])
        base += part
    np.copyto(index, base, casting="unsafe")
    return index


def _cell(vols, coords, rows, index, wide, floors):
    """Corners and fractions of the trilinear cell sampled at each voxel.

    vols is one (nx, ny, nz) volume or a C-contiguous (G, nx, ny, nz) group,
    each image sampled by its own coordinates, all of its voxels or, for
    one image, the voxels of a slab; coords is the (3, n) array of
    `_coords`, which `_cell_base` turns into the fractions.  rows are 8 flat
    scratch rows of the sample count, index an intp one, and wide two
    float64 ones and floors a (3, n) array of coords' dtype for
    `_cell_base`, which may overlay rows[1:] since `_cell_base` is done
    with them before the gathers.  Returns (corners,
    fracs): the 8 flat corner arrays in `_CORNER_BITS` order, which are the
    rows, and the flat x, y and z fractions.  Each corner is one gather
    with the shared base index, the image's offset plus the cell's, from
    the raveled group shifted by that corner's constant offset; 8 separate
    (n,) gathers, not one (8, n) gather, keep the scratch at one row per
    corner.
    """
    shape = vols.shape[-3:]
    base = _cell_base(coords, shape, floors, wide, index)
    n_vox = math.prod(shape)
    images = vols.size // n_vox
    if images > 1:
        offsets = base.reshape(images, -1)
        offsets += np.arange(images)[:, None] * n_vox
    strides = (shape[1] * shape[2], shape[2], 1)
    steps = _CORNER_BITS @ np.array([s if n > 1 else 0 for s, n in zip(strides, shape)])
    flat = vols.reshape(-1)
    for s, out in zip(steps, rows):
        # the indices are in range; mode "clip" only spares the copy "raise" makes
        np.take(flat[s:], base, out=out, mode="clip")
    return list(rows), coords


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
    float64 and disp float64 or float32 (the optimizer's stack, which
    `pipeline.run_case` hands `volume.warp_series`), which the sum with the
    float64 grid widens exactly.  Writes into out, a C-contiguous float64
    array shaped like vol, one of `slabs(vol.shape)` at a time, and works
    in scratch, an (11, m) float64 array of C-contiguous rows, m at least
    `slab_voxels(vol.shape)`; both are made here when not given, and a
    caller that warps on helper threads passes ones it made on its own
    thread.  Each slab's result holds only its own part of out; the flat
    cell index is summed in the rows of corners 1 and 2 and cast into an
    intp view of the row that later holds 1 - fx, all free while `_cell`
    needs them, so the index allocates nothing.  Every voxel sees the same
    operations in any slab.  Returns out.
    """
    if out is None:
        out = np.empty(vol.shape)
    plane = vol.shape[1] * vol.shape[2]
    blocks = slabs(vol.shape)
    if scratch is None:
        scratch = np.empty((11, max(x1 - x0 for x0, x1 in blocks) * plane))
    planes = np.moveaxis(disp, -1, 0)
    for x0, x1 in blocks:
        rows = scratch[:, : (x1 - x0) * plane]
        coords = _coords(planes[:, x0:x1], rows[:3], x0=x0)
        corners = [out[x0:x1].reshape(-1), *rows[3:10]]
        index = rows[10].view(np.intp)
        c, (fx, fy, fz) = _cell(vol, coords, corners, index, rows[3:5], rows[5:8])
        gx = np.subtract(1.0, fx, out=rows[10])
        c00, c10, c01, c11 = (_lerp(c[k], c[k + 1], fx, gx) for k in (0, 2, 4, 6))
        gy = np.subtract(1.0, fy, out=c[1])  # the upper x-corners are free now
        c0 = _lerp(c00, c10, fy, gy)
        c1 = _lerp(c01, c11, fy, gy)
        _lerp(c0, c1, fz, np.subtract(1.0, fz, out=c[3]))  # c0 is out's row
    return out


def _point_grad_parts(vols, planes, rows, index, clamped, grid):
    """Flat warped values and the 3 flat point-gradient components.

    vols and planes as `_cell` and `_coords` take them, of one float dtype,
    and grid the same planes of their grid's `coordinate_grid`; rows are a
    C-contiguous (13, n) scratch array of that dtype for the n samples of
    the planes, index one intp row and clamped 3 boolean ones.  The flat
    cell index is summed in float64 over the memory of corner rows 1 to 4.
    The values and the parts come back in 4 of the rows; rows[1] and
    rows[2] are free again.
    """
    n = planes[0].size
    coords = _coords(planes, rows[:3], grid)
    top, _ = _bounds(vols.shape[-3:], coords.dtype)
    np.less(coords, 0.0, out=clamped)
    above = index.view(bool)[: 3 * n].reshape(3, n)  # the index is not made yet
    clamped |= np.greater(coords, top, out=above)
    # two float64 rows over the consecutive corner rows 1-4: all four in
    # float32, the first two in float64; the floors over corner rows 5-7
    wide = rows[4:8].reshape(-1, copy=False).view(np.float64)[: 2 * n].reshape(2, n)
    c, (fx, fy, fz) = _cell(vols, coords, rows[3:11], index, wide, rows[8:11])
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


def match_terms(
    vols, disp, target, pred_log, roi, floor_eps, sim_c, mf_c, grad_out, scratch, x0=0
):
    """Fused similarity + model-fit contribution of a group of b-value images.

    vols is a C-contiguous (G, nx, ny, nz) stack of G images.  The call
    covers their x-planes x0..x0+sx-1, all of them or, for one image, a
    slab (`slabs`): disp and grad_out are the component-major (G, 3, sx,
    ny, nz) fields of those planes, each component C-contiguous and
    grad_out wholly so, and target the C-contiguous (G, sx, ny, nz) target
    there.  roi holds the ascending flat indices of the ROI voxels in the
    raveled (G, sx, ny, nz) planes (the `np.flatnonzero` of G stacked
    masks) and pred_log the predicted log signal on them, in the same
    order; scratch is a `GroupScratch` that fits the call.  Warps each
    image by its field, sampling the whole image, and adds two sums per
    image to scratch.sums: the L1 distance to its target image (sum over
    its voxels) and the squared log residual against pred_log (sum over its
    roi voxels).  A call that reaches the last plane returns them as two
    (G,) arrays; the slabs before it return None, and their sums wait in
    scratch.sums for the next slab of the image.  Adds the chain-ruled
    gradient w.r.t. `disp` into `grad_out` using the prefactors sim_c
    (applied to the L1 subgradient) and mf_c (applied to 2 * residual /
    warped_value).  Warped values below floor_eps contribute
    log(floor_eps) and a zero model-fit gradient.

    Per voxel, with w the warped value, r = w - target, wfl = w if
    w > floor_eps else floor_eps and res = log(wfl) - pred_log on roi, 0
    elsewhere: coeff = sign(r) * sim_c, plus (mf_c * 2 * res) / wfl where
    roi and w > floor_eps; grad_out[a] += dout_a * coeff, with dout as in
    `warp3d_with_point_grad`.  Only the sign of a zero gradient entry can
    differ from that formula.  The model-fit steps run on the roi voxels
    alone, and their squares are summed in a zeroed full-size row per
    image, in the order of a sum over the whole image.  Both sums
    accumulate in float64 (`RowSums`) and keep the bits of one sum over the
    whole image wherever the slabs cut it.  A voxel's bits do not depend on
    the size of its group or slab.
    """
    images, nx = vols.shape[:2]
    sx, plane = disp.shape[2], math.prod(disp.shape[3:])
    n = images * sx * plane
    rows, clamped = (_leading(buf, n) for buf in (scratch.rows, scratch.clamped))
    w, parts = _point_grad_parts(
        vols, np.moveaxis(disp, 1, 0), rows, scratch.index[:n], clamped,
        scratch.grid[:, x0 : x0 + sx],
    )
    r = np.subtract(w, target.reshape(-1), out=rows[1])
    coeff = np.sign(r, out=rows[2])
    coeff *= sim_c
    sums, start, last = scratch.sums, x0 * plane, x0 + sx == nx
    sums.add(0, np.abs(r, out=r).reshape(images, -1), start, last)

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
    sums.add(images, sq.reshape(images, -1), start, last)
    res *= mf_c * 2.0
    res /= wfl
    coeff_roi = np.take(coeff, roi, out=sq_roi, mode="clip")
    np.add(coeff_roi, res, out=coeff_roi, where=live)
    np.put(coeff, roi, coeff_roi, mode="clip")

    for a, part in enumerate(parts):
        part *= coeff
        grad_a = grad_out[:, a]
        grad_a += part.reshape(grad_a.shape)
    if last:
        return np.array(sums.totals[:images]), np.array(sums.totals[images : 2 * images])
    return None


def _rows(a, b, axis):
    """Views of two same-shaped arrays as flat rows, and the flat distance
    between neighbours along `axis` within a row.

    C-contiguous arrays are one flat row each.  Otherwise each slice along
    the first axis must be C-contiguous and is a row of a 2-d view, so
    axis must be another one; ValueError when a view does not exist.
    """
    if a.flags.c_contiguous and b.flags.c_contiguous:
        shape = (-1,)
    elif axis:
        shape = (len(a), -1)
    else:
        raise ValueError("the first axis of arrays that are not C-contiguous has no flat stride")
    stride = math.prod(a.shape[axis + 1 :])
    return a.reshape(shape, copy=False), b.reshape(shape, copy=False), stride


def field_diff(u, axis, out):
    """Forward difference of an array along one of its axes.

    out[i] = u[i+1] - u[i] below the last plane, 0 on it: the bits of
    np.diff padded with a zero plane.  Writes into `out` (shaped like u)
    and returns it.  u and out are C-contiguous, or, along an axis other
    than the first, each slice of them along the first axis is (`_rows`).
    An axis of one voxel differences to 0.
    """
    fu, fo, s = _rows(u, out, axis)
    np.subtract(fu[..., s:], fu[..., :-s], out=fo[..., :-s])
    out[(slice(None),) * axis + (-1,)].fill(0.0)
    return out


def field_diff_adjoint(w, axis, out):
    """Adjoint of `field_diff` on the w whose last plane along the axis is 0.

    Writes into `out` (shaped like w; laid out as `field_diff` takes them)
    and returns it: out[0] = -w[0] and out[i] = w[i-1] - w[i] from 1 on,
    so that <diff(a), w> == <a, adjoint(w)> for every a.
    """
    fw, fo, s = _rows(w, out, axis)
    np.subtract(fw[..., :-s], fw[..., s:], out=fo[..., s:])
    np.negative(fw[..., :s], out=fo[..., :s])
    return out


def smooth_loss_grad(u, grad_out, weight, scratch, x0=0):
    """Sum of the squared forward differences of each field of a group.

    u holds the component-major (G, 3, nx, ny, nz) C-contiguous fields of a
    group and scratch is a `GroupScratch` that fits the call, which covers
    their x-planes x0..x0+sx-1: all of them or, for one field, a slab
    (`slabs`).  grad_out is the C-contiguous (G, 3, sx, ny, nz) gradient of
    those planes.  Accumulates weight * d(loss)/d(u) into grad_out and adds
    each field's per-(component, axis) sums of the squares of `field_diff`
    on those planes to scratch.smooth_sums (`RowSums`).  A call that
    reaches the last plane returns the G raw losses, a list; the slabs
    before it return None.  Each loss adds its field's 9 sums, accumulated
    in float64, in component-major order (u_0 along x, y, z, then u_1, then
    u_2), and each component of grad_out receives (weight * 2) *
    adjoint(diff) along x, then y, then z.  Along x a slab reads one plane
    of u beyond each of its ends, so its differences and their adjoint have
    the values of the whole field's.  The passes run over the whole group
    while one field fits GROUP_VOXELS, and over one field, or its slab, at
    a time beyond that; a slab's three components lie a component volume
    apart, and each is one row of the difference ops (`_rows`).  Every sum
    and gradient entry keeps its bits either way.
    """
    images, _, nx = u.shape[:3]
    x1 = x0 + grad_out.shape[2]
    planes = u.reshape((-1,) + u.shape[2:])
    count = len(planes)
    grads = grad_out.reshape((count,) + grad_out.shape[2:])
    step = count if x1 - x0 == nx and 3 * planes[0].size <= GROUP_VOXELS else 3
    sums, start, last = scratch.smooth_sums, x0 * planes[0][0].size, x1 == nx
    k = weight * 2.0
    for q in range(0, count, step):
        for a in range(3):
            lo, hi = (max(x0 - 1, 0), min(x1 + 1, nx)) if a == 0 else (x0, x1)
            block = planes[q : q + step, lo:hi]
            d, work = (
                scratch.flat[r * block.size : (r + 1) * block.size].reshape(block.shape)
                for r in (0, 1)
            )
            own = (slice(None), slice(x0 - lo, x1 - lo))  # the call's planes of block
            field_diff(block, a + 1, d)
            sq = np.multiply(d[own], d[own], out=work[own])
            sums.add(a * count + q, sq.reshape(step, -1, copy=False), start, last)
            field_diff_adjoint(d, a + 1, work)
            part = work[own]
            part *= k
            grads[q : q + step] += part
    if not last:
        return None
    losses = []
    for g in range(images):
        loss = 0.0
        for c in range(3):
            for a in range(3):
                loss += sums.totals[a * count + 3 * g + c]
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


def fan_out_ranges(task, n, elements, scratch):
    """[task(lo, hi, scratch(lo, hi)), ...] over the `thread_ranges` of n items.

    scratch(lo, hi) makes what the task of items lo..hi-1 works in.  It is
    called on the calling thread, for every range, before any range is
    handed out: glibc keeps what a helper thread allocates in that thread's
    own arena, which then stays resident beside the main one, so a task
    allocates no array of its own beyond numpy's temporaries.  The calling
    thread runs the first range and the helpers the others.  Once every
    range has finished, the results come back in range order, or the error
    of the first range that raised is raised.  Tasks that write only their
    own outputs give the bits of the serial loop.  A task must not call
    `fan_out_ranges`: the helpers would wait on themselves.
    """
    (first, mine), *rest = [(r, scratch(*r)) for r in thread_ranges(n, elements)]
    if not rest:  # no handoff: a 1-voxel curve fit calls this once per solve
        return [task(*first, mine)]
    pool = _helpers()
    futures = [pool.submit(task, lo, hi, s) for (lo, hi), s in rest]
    try:
        result = task(*first, mine)
    finally:
        wait(futures)
    return [result] + [fut.result() for fut in futures]


def _blocks(n):
    """The near-equal blocks of at most ADAM_BLOCK elements of n elements."""
    return near_equal_ranges(0, n, -(-n // ADAM_BLOCK))


def adam_moments(g, m, v, beta1, beta2, scratch):
    """Fold one gradient into the Adam moments, in place, serial.

    m = m * beta1 + (1 - beta1) * g, v = v * beta2 + ((1 - beta2) * g) * g,
    7 numpy calls per block of at most ADAM_BLOCK elements, in one
    block-sized row of scratch, a flat array of g's dtype with at least
    min(g.size, ADAM_BLOCK) elements.  `objective` folds each group's
    gradient into the group's slice of the moments right after it makes it,
    so no whole gradient exists.
    """
    s_row = scratch[: min(g.size, ADAM_BLOCK)]
    for i, j in _blocks(g.size):
        gb, mb, vb = g[i:j], m[i:j], v[i:j]
        s = s_row[: j - i]
        np.multiply(gb, 1.0 - beta1, out=s)
        mb *= beta1
        mb += s
        np.multiply(gb, 1.0 - beta2, out=s)
        s *= gb
        vb *= beta2
        vb += s


def adam_step(x, m, v, lr, eps, bc1, bc2, scratch):
    """Move x by the Adam step of the moments, in place, serial; bc1/bc2
    are 1 - beta^t.

    x -= (lr * (m / bc1)) / (sqrt(v / bc2) + eps), 7 numpy calls per block
    of at most ADAM_BLOCK elements, in two block-sized rows of scratch, a
    flat array of x's dtype with at least 2 * min(x.size, ADAM_BLOCK)
    elements.
    """
    k = min(x.size, ADAM_BLOCK)
    rows = scratch[: 2 * k].reshape(2, k)
    for i, j in _blocks(x.size):
        xb, mb, vb = x[i:j], m[i:j], v[i:j]
        s, t = rows[:, : j - i]
        np.divide(mb, bc1, out=s)
        s *= lr
        np.divide(vb, bc2, out=t)
        np.sqrt(t, out=t)
        t += eps
        s /= t
        xb -= s


def adam_update(x, g, m, v, lr, beta1, beta2, eps, bc1, bc2, scratch):
    """One whole Adam step on flat arrays, serial: `adam_moments` of g, then
    `adam_step`; scratch as `adam_step` takes it.

    Every block stays in cache across its 7 passes and nothing is
    allocated.  Each element sees the same operations in any block or call,
    so the fold and the step may be taken range by range and apart in time:
    `objective` folds each group's gradient as it makes it and steps the
    group's fields at the next evaluation, in the group's own thread.  No
    library code calls this: the tests pin it to textbook Adam, and
    `perfbench/spans.py` wraps its name.
    """
    adam_moments(g, m, v, beta1, beta2, scratch)
    adam_step(x, m, v, lr, eps, bc1, bc2, scratch)

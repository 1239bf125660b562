"""Low-level numeric kernels shared by the warping and loss machinery.

Each kernel has one vectorized numpy float64 implementation.  The inner
registration loop calls them hundreds to thousands of times per case, so
they work on raw arrays, write into buffers they own or the caller passes,
and accumulate gradients into caller-owned buffers instead of allocating
per-term results.  The tests check them against independent code: the
scalar `volume.trilinear_sample`, the per-term losses in `objective`,
`np.gradient`, the textbook Adam step and finite differences.  Each kernel
rounds exactly as the per-voxel formula in its docstring, evaluated in the
written order, does; at most the sign of a zero gradient entry differs.
So regrouping the array operations of a kernel, as long as every voxel
still sees the same operations, changes no result bit.

That is what lets the work use several threads without changing a bit.
`fan_out_ranges` is the one thread primitive: it splits n items into one
contiguous range per thread of the process's budget (the CPUs it may run
on, or its share of them in a cohort worker), runs the first range in the
calling thread and the others on the process's one helper pool, and
returns the results in range order.  It has three users:

- `objective` gives each thread one range of b-value images; each image
  writes only its own gradient slice, and the returned sums are added in
  b-value order;
- `adam_update` gives each thread one range of its flat arrays, which the
  thread works through in cache-sized blocks;
- `signal_model` does the same with the voxels of every decay fit, LLS
  and the robust L1 fit.

numpy releases the interpreter lock inside its array loops, so the threads
overlap.  A budget of 1, or work too small to pay for the handoffs
(FAN_OUT_MIN_ELEMENTS per range), is the plain serial loop.  The pool
holds budget - 1 threads and is made once per process and budget.

The objective's kernels, `match_terms` and `smooth_loss_grad`, take each
displacement field component-major, as a C-contiguous (3, nx, ny, nz)
array, so every full-volume pass over a field or its gradient reads or
writes one contiguous plane per component.  `DisplacementField`, the warps
and the case files keep the voxel-major (nx, ny, nz, 3) layout; only the
optimizer's iterate is component-major (`objective.stack_fields`).  The
model-fit term lives on the ROI, a few percent of the voxels: `match_terms`
takes the ROI as flat voxel indices and computes the floor, the log, the
residual and its gradient coefficient on those voxels alone.  It scatters
the squared residuals into a zeroed full-size array before summing, so the
sum adds the same values in the same order as a whole-volume sum.

`field_diff` and `field_diff_adjoint` compute their interior with one op
over the flat array at the axis stride s.  At the border planes the flat
neighbours p - s and p + s wrap into the previous or next row, so the op
gets those entries wrong; they are exactly the border planes, which are
then rewritten by the per-axis formula.  In the adjoint the wrapped
subtrahend is the zeroed last two planes of the row before, and x - 0.0
is x bit for bit.  This reads memory order, so both refuse arrays that
are not C-contiguous, and `objective.loss_and_gradient` checks its
buffers up front.

`warp3d` and `warp3d_with_point_grad` share the index math in `_cell`: one
flat base index per voxel and a constant +1 stride per axis, so the 8 cell
corners are 8 gathers from the raveled volume.  `warp3d` computes no point
gradient, because none of its callers differentiates the warped values:
`volume.warp`, which resamples the input once per outer iteration
(`pipeline.run_case`), moves the phantoms and serves `objective.total_loss`,
and `volume.compose_displacements`.  The pipeline calls neither of the last
two: only the tests and the benchmark's name bindings in `pipeline` reach
them.  `match_terms` is the one caller that needs the gradient.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

# Elements per block of the Adam step: the 6 block arrays (x, g, m, v and two
# scratch rows) of 128 KiB each stay in L2 cache across the 13 passes.
ADAM_BLOCK = 16384

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
# On 2 cores, `objective.loss_and_gradient` breaks even at about 8k voxels
# per b-value image and takes 2x as long with 2 threads at 20x20x8; it
# threads from 7,282 voxels at 6 b-values (2 ranges of 3 images x 3
# components).  `adam_update` breaks even at about 180k elements (90k per
# range).
FAN_OUT_MIN_ELEMENTS = 1 << 16

# Corner k of a trilinear cell sits at offsets (k & 1, (k >> 1) & 1, k >> 2)
# from the base voxel, so corner pairs (k, k + 1), k = 0, 2, 4, 6, are the
# x-edges at (y, z) = (0, 0), (1, 0), (0, 1), (1, 1).
_CORNER_BITS = np.array([[k & 1, (k >> 1) & 1, k >> 2] for k in range(8)], dtype=np.intp)


def _coords(planes):
    """Sample coordinates p + u_a[p] per axis, as 3 fresh (nx, ny, nz) arrays.

    planes[a] is the (nx, ny, nz) component a of the displacement: a
    contiguous plane of a component-major field, or a strided view
    (`np.moveaxis(disp, -1, 0)`) of a (nx, ny, nz, 3) one.
    """
    shape = planes[0].shape
    out = []
    for a, n in enumerate(shape):
        grid = np.arange(n, dtype=np.float64).reshape([n if b == a else 1 for b in range(3)])
        out.append(grid + planes[a])
    return out


def _cell(vol, coords):
    """Corners and fractions of the trilinear cell sampled at each voxel.

    Clamp-to-edge per axis: the coordinate is clipped to [0, n-1] and the
    cell index to [0, n-2], so the upper neighbour is always index + 1
    (index + 0 on an axis of length 1).  The coordinate arrays are
    overwritten with the fractions in [0, 1].  Returns (corners, fracs):
    8 flat corner arrays in `_CORNER_BITS` order, and the flat x, y and z
    fractions.  Each corner is one gather with the shared base index from
    the raveled volume shifted by that corner's constant offset; 8 separate
    (n,) gathers, not one (8, n) gather, because a temporary of several MB
    costs more in fresh pages than the gather itself.
    """
    shape = vol.shape
    strides = (shape[1] * shape[2], shape[2], 1)
    base = None
    fracs = []
    for a, n in enumerate(shape):
        c = np.clip(coords[a], 0.0, n - 1.0, out=coords[a])
        i0 = np.floor(c)
        np.fmin(i0, max(n - 2, 0), out=i0)  # fmin: a NaN coordinate still indexes
        np.subtract(c, i0, out=c)
        fracs.append(c.reshape(-1))
        i0 *= strides[a]
        base = i0 if base is None else np.add(base, i0, out=base)
    base = base.astype(np.intp).reshape(-1)
    steps = _CORNER_BITS @ np.array([s if n > 1 else 0 for s, n in zip(strides, shape)])
    flat = vol.ravel()
    return [flat[s:].take(base) for s in steps], fracs


def _lerp(lo, hi, f, g):
    """lo * g + hi * f with g = 1 - f, written into lo; hi is overwritten."""
    lo *= g
    hi *= f
    lo += hi
    return lo


def _lerp_x(c, fx):
    """x-lerp of the 8 corners into the 4 x-edges (y, z) = 00, 10, 01, 11."""
    gx = 1 - fx
    return [_lerp(c[k], c[k + 1], fx, gx) for k in (0, 2, 4, 6)]


def warp3d(vol, disp):
    """Trilinear backward warp: out[p] = vol(p + disp[p]), clamp-to-edge.

    With f and g = 1 - f the cell fractions: c_yz = c_0yz * gx + c_1yz * fx,
    c_z = c_0z * gy + c_1z * fy, out = c_0 * gz + c_1 * fz.
    """
    corners, (fx, fy, fz) = _cell(vol, _coords(np.moveaxis(disp, -1, 0)))
    c00, c10, c01, c11 = _lerp_x(corners, fx)
    gy = 1 - fy
    c0 = _lerp(c00, c10, fy, gy)
    c1 = _lerp(c01, c11, fy, gy)
    return _lerp(c0, c1, fz, 1 - fz).reshape(vol.shape)


def _point_grad_parts(vol, planes):
    """Flat warped values and the 3 flat point-gradient components.

    planes are the 3 displacement components as `_coords` takes them.  The
    parts are what `warp3d_with_point_grad` stacks; they are fresh arrays
    the caller may overwrite.
    """
    coords = _coords(planes)
    inside = [((c >= 0.0) & (c <= n - 1.0)).reshape(-1) for c, n in zip(coords, vol.shape)]
    c, (fx, fy, fz) = _cell(vol, coords)
    gy, gz = 1 - fy, 1 - fz
    d00, d10, d01, d11 = (np.subtract(c[k + 1], c[k]) for k in (0, 2, 4, 6))
    c00, c10, c01, c11 = _lerp_x(c, fx)  # c[1], c[3], c[5], c[7] are free now
    dy0 = np.subtract(c10, c00, out=c[1])
    dy1 = np.subtract(c11, c01, out=c[3])
    c0 = _lerp(c00, c10, fy, gy)
    c1 = _lerp(c01, c11, fy, gy)
    dz = np.subtract(c1, c0, out=c[5])
    out = _lerp(c0, c1, fz, gz)
    dx = _lerp(_lerp(d00, d10, fy, gy), _lerp(d01, d11, fy, gy), fz, gz)
    dy = _lerp(dy0, dy1, fz, gz)
    for part, ins in zip((dx, dy, dz), inside):
        part *= ins
    return out, (dx, dy, dz)


def warp3d_with_point_grad(vol, disp):
    """Warp plus the derivative of each sample w.r.t. its sample coordinate.

    Returns (out, dout) with dout[..., a] = d out / d coordinate_a, zeroed
    where the coordinate was clamped.  out is `warp3d`, bit for bit.  With
    the edge differences d_yz = c_1yz - c_0yz:
    dout_x = ((d_00 * gy + d_10 * fy) * gz + (d_01 * gy + d_11 * fy) * fz) * in_x,
    dout_y = ((c_10 - c_00) * gz + (c_11 - c_01) * fz) * in_y,
    dout_z = (c_1 - c_0) * in_z, where in_a is 1 inside [0, n_a - 1], else 0.
    """
    out, parts = _point_grad_parts(vol, np.moveaxis(disp, -1, 0))
    return out.reshape(vol.shape), np.stack(parts, axis=-1).reshape(vol.shape + (3,))


def match_terms(vol, disp, fixed, pred_log, roi, floor_eps, sim_c, mf_c, grad_out):
    """Fused similarity + model-fit contribution of one b-value image.

    disp and grad_out are component-major (3, nx, ny, nz) fields; roi holds
    the ascending flat indices of the ROI voxels (`np.flatnonzero`) and
    pred_log the predicted log signal on them, in the same order.  Warps
    `vol` by `disp`, returns the L1 distance to `fixed` (sum over all
    voxels) and the squared log residual against `pred_log` (sum over roi
    voxels), and adds the chain-ruled gradient w.r.t. `disp` into
    `grad_out` using the prefactors sim_c (applied to the L1 subgradient)
    and mf_c (applied to 2 * residual / warped_value).  Warped values below
    floor_eps contribute log(floor_eps) and a zero model-fit gradient.

    Per voxel, with w the warped value, r = w - fixed, wfl = w if
    w > floor_eps else floor_eps and res = log(wfl) - pred_log on roi, 0
    elsewhere: coeff = sign(r) * sim_c, plus (mf_c * 2 * res) / wfl where
    roi and w > floor_eps; grad_out[a] += dout_a * coeff, with dout as in
    `warp3d_with_point_grad`.  Only the sign of a zero gradient entry can
    differ from that formula.  The model-fit steps run on the roi voxels
    alone, and their squares are summed in a zeroed full-size array, in the
    order of a sum over the whole volume.
    """
    w, parts = _point_grad_parts(vol, disp)
    r = np.subtract(w, fixed.reshape(-1))
    coeff = np.sign(r)
    coeff *= sim_c
    sim_sum = float(np.abs(r, out=r).sum())

    w_roi = w[roi]
    live = w_roi > floor_eps
    wfl = np.where(live, w_roi, floor_eps)
    res = np.log(wfl)
    res -= pred_log
    sq = r
    sq.fill(0.0)
    sq[roi] = np.multiply(res, res)
    mf_sum = float(sq.sum())
    res *= mf_c * 2.0
    res /= wfl
    coeff[roi[live]] += res[live]

    for a, part in enumerate(parts):
        part *= coeff
        grad_out[a] += part.reshape(vol.shape)
    return sim_sum, mf_sum


def _along(axis, index):
    """Index tuple selecting `index` (an int or a slice) along one axis."""
    return (slice(None),) * axis + (index,)


def _flat(arr, axis):
    """A flat view of a C-contiguous array and the flat distance between
    neighbours along `axis`; ValueError if the array is not C-contiguous."""
    return arr.reshape(-1, copy=False), math.prod(arr.shape[axis + 1 :])


def field_diff(u, axis, out):
    """First difference of a C-contiguous array along one of its axes.

    Central (u[i+1] - u[i-1]) / 2 inside, one-sided at both borders: the
    same operations, hence the same bits, as np.gradient with spacing 1.
    Writes into `out` (shaped like u, C-contiguous too) and returns it.
    Needs at least 2 voxels along the axis.  The interior is one pass over
    the flat arrays at the axis stride; the border planes it gets wrong are
    then overwritten with the one-sided differences.
    """
    n = u.shape[axis]
    if n < 2:
        raise ValueError(f"need at least 2 voxels along axis {axis} to differentiate")
    at = lambda i: _along(axis, i)  # noqa: E731
    (fu, s), (fo, _) = _flat(u, axis), _flat(out, axis)
    inner = fo[s:-s]
    np.subtract(fu[2 * s :], fu[: -2 * s], out=inner)
    inner /= 2.0
    np.subtract(u[at(1)], u[at(0)], out=out[at(0)])
    np.subtract(u[at(n - 1)], u[at(n - 2)], out=out[at(n - 1)])
    return out


def field_diff_adjoint(w, axis, out):
    """Adjoint of `field_diff`: <diff(a), w> == <a, adjoint(w)> exactly.

    Writes into `out` (shaped like w; both C-contiguous) and returns it.
    With h = 0.5 * w: out[i] = h[i-1] - h[i+1] inside, and the one-sided
    border rows of `field_diff` add -w[0] to out[0], w[0] to out[1],
    w[n-1] to out[n-1] and -w[n-1] to out[n-2], in that order.
    """
    n = w.shape[axis]
    at = lambda i: _along(axis, i)  # noqa: E731
    if n == 2:
        np.add(w[at(0)], w[at(1)], out=out[at(1)])
        np.negative(out[at(1)], out=out[at(0)])
        return out
    # out[i] = -h[i+1] up to n-3, 0 above; then out[i] -= out[i-2] from 2 on,
    # which adds h[i-1] (negation is exact).  Both steps are one pass over
    # the flat arrays at the axis stride s.  The first also writes planes
    # n-2 and n-1, which are zeroed after it; in the second, planes 0 and 1
    # of every row but the first subtract planes n-2 and n-1 of the row
    # before, those zeros, and x - 0.0 is x bit for bit.
    (fw, s), (fo, _) = _flat(w, axis), _flat(out, axis)
    np.multiply(fw[s:-s], -0.5, out=fo[: -2 * s])
    out[at(slice(-2, None))].fill(0.0)
    np.subtract(fo[2 * s :], fo[: -2 * s], out=fo[2 * s :])
    w_first, w_last = w[at(0)], w[at(n - 1)]
    for i, op, wb in ((0, np.subtract, w_first), (1, np.add, w_first),
                      (n - 1, np.add, w_last), (n - 2, np.subtract, w_last)):
        o = out[at(i)]
        op(o, wb, out=o)
    return out


def smooth_loss_grad(u, grad_out, weight):
    """Sum of squared finite-difference Jacobian entries of a vector field.

    u and grad_out are component-major (3, nx, ny, nz) C-contiguous fields.
    Accumulates weight * d(loss)/d(u) into grad_out and returns the raw
    loss (central differences interior, one-sided at borders, per
    np.gradient).  The loss sums the per-entry sums in component-major
    order (u_0 along x, y, z, then u_1, then u_2), and each component of
    grad_out receives (weight * 2) * adjoint(diff) along x, then y, then z.
    """
    d = np.empty_like(u)
    work = np.empty_like(u)
    sums = np.empty((3, 3))
    k = weight * 2.0
    for a in range(3):
        field_diff(u, a + 1, d)
        np.multiply(d, d, out=work)
        work.reshape(3, -1).sum(axis=1, out=sums[:, a])
        field_diff_adjoint(d, a + 1, work)
        work *= k
        grad_out += work
    loss = 0.0
    for s in sums.flat:
        loss += float(s)
    return loss


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


def fan_out_ranges(task, n, elements):
    """[task(lo, hi), ...] over one contiguous range of 0..n-1 per thread.

    The n items (b-value images, array elements, voxels) cover `elements`
    array elements in all.  They are split into `near_equal_ranges`, at
    most one per thread of the budget and only as many as hold
    FAN_OUT_MIN_ELEMENTS elements each, so a budget of 1 or a small n is
    one range: the serial loop.  The calling thread runs the first range
    and the helpers the others.  Once every range has finished, the results
    come back in range order, or the error of the first range that raised
    is raised.  Tasks that write only their own outputs give the bits of
    the serial loop.  A task must not call `fan_out_ranges`: the helpers
    would wait on themselves.
    """
    parts = max(1, min(_budget, n, elements // FAN_OUT_MIN_ELEMENTS))
    if parts == 1:  # no handoff: a 1-voxel curve fit calls this once per solve
        return [task(0, n)]
    first, *rest = near_equal_ranges(0, n, parts)
    pool = _helpers()
    futures = [pool.submit(task, lo, hi) for lo, hi in rest]
    try:
        result = task(*first)
    finally:
        wait(futures)
    return [result] + [fut.result() for fut in futures]


def adam_update(x, g, m, v, lr, beta1, beta2, eps, bc1, bc2):
    """One in-place Adam step on flat arrays; bc1/bc2 are 1 - beta^t.

    m = m * beta1 + (1 - beta1) * g, v = v * beta2 + ((1 - beta2) * g) * g,
    x -= (lr * (m / bc1)) / (sqrt(v / bc2) + eps).  `fan_out_ranges` gives
    each thread one contiguous range, which it works through in near-equal
    blocks of at most ADAM_BLOCK elements with two block-sized scratch rows,
    so every block stays in cache across all the steps and no full-size
    temporary is allocated.
    """

    def run(lo, hi):
        scratch = np.empty((2, min(hi - lo, ADAM_BLOCK)))
        for i, j in near_equal_ranges(lo, hi, -(-(hi - lo) // ADAM_BLOCK)):
            xb, gb, mb, vb = x[i:j], g[i:j], m[i:j], v[i:j]
            s, t = scratch[:, : j - i]
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

    fan_out_ranges(run, x.size, x.size)

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
`fan_out` runs independent tasks over the process's thread budget (the
CPUs it may run on, or its share of them in a cohort worker) and returns
the results in task order.  `adam_update` splits its arrays into one
contiguous run of blocks per thread, and `objective` runs one task per
b-value image, each writing only its own gradient slice, and adds the
returned sums in b-value order.  numpy releases the interpreter lock inside
its array loops, so the threads overlap.  A budget of 1, or tasks too small
to pay for the handoffs (FAN_OUT_MIN_ELEMENTS), is the plain serial loop.

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

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

# Elements per block of the Adam step: the 6 block arrays (x, g, m, v and two
# scratch rows) of 128 KiB each stay in L2 cache across the 13 passes.
ADAM_BLOCK = 16384

# Threads `fan_out` may use in this process: the CPUs it may run on, until
# `set_thread_budget` gives it a share of them.
_budget = len(os.sched_getaffinity(0))
# (pid, helper count, ThreadPoolExecutor), made on first use; the pid tells a
# forked child that the pool's threads stayed behind in its parent.
_pool = None
# Array elements a task must cover before `fan_out` gives it a thread.  Two
# threads hand the interpreter lock back and forth around every numpy call,
# and on small arrays that costs more than the second core saves.  On 2
# cores, `objective.loss_and_gradient` breaks even at about 8k voxels per
# b-value image (24k field elements) and takes 2x as long with 2 threads at
# 20x20x8; `adam_update` breaks even at about 180k elements (90k per part).
FAN_OUT_MIN_ELEMENTS = 1 << 16

# Corner k of a trilinear cell sits at offsets (k & 1, (k >> 1) & 1, k >> 2)
# from the base voxel, so corner pairs (k, k + 1), k = 0, 2, 4, 6, are the
# x-edges at (y, z) = (0, 0), (1, 0), (0, 1), (1, 1).
_CORNER_BITS = np.array([[k & 1, (k >> 1) & 1, k >> 2] for k in range(8)], dtype=np.intp)


def _coords(disp):
    """Sample coordinates p + disp[p] per axis, as 3 fresh (nx, ny, nz) arrays."""
    shape = disp.shape[:3]
    out = []
    for a, n in enumerate(shape):
        grid = np.arange(n, dtype=np.float64).reshape([n if b == a else 1 for b in range(3)])
        out.append(grid + disp[..., a])
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
    corners, (fx, fy, fz) = _cell(vol, _coords(disp))
    c00, c10, c01, c11 = _lerp_x(corners, fx)
    gy = 1 - fy
    c0 = _lerp(c00, c10, fy, gy)
    c1 = _lerp(c01, c11, fy, gy)
    return _lerp(c0, c1, fz, 1 - fz).reshape(vol.shape)


def _point_grad_parts(vol, disp):
    """Flat warped values and the 3 flat point-gradient components.

    The parts are what `warp3d_with_point_grad` stacks; they are fresh
    arrays the caller may overwrite.
    """
    coords = _coords(disp)
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
    out, parts = _point_grad_parts(vol, disp)
    return out.reshape(vol.shape), np.stack(parts, axis=-1).reshape(vol.shape + (3,))


def match_terms(vol, disp, fixed, pred_log, roi, floor_eps, sim_c, mf_c, grad_out):
    """Fused similarity + model-fit contribution of one b-value image.

    Warps `vol` by `disp`, returns the L1 distance to `fixed` (sum over all
    voxels) and the squared log residual against `pred_log` (sum over roi
    voxels), and adds the chain-ruled gradient w.r.t. `disp` into
    `grad_out` using the prefactors sim_c (applied to the L1 subgradient)
    and mf_c (applied to 2 * residual / warped_value).  Warped values below
    floor_eps contribute log(floor_eps) and a zero model-fit gradient.

    Per voxel, with w the warped value, r = w - fixed, wfl = w if
    w > floor_eps else floor_eps and res = log(wfl) - pred_log on roi, 0
    elsewhere: coeff = sign(r) * sim_c, plus (mf_c * 2 * res) / wfl where
    roi and w > floor_eps; grad_out[..., a] += dout_a * coeff, with dout
    as in `warp3d_with_point_grad`.  Only the sign of a zero gradient entry
    can differ from that formula.
    """
    w, parts = _point_grad_parts(vol, disp)
    w = w.reshape(vol.shape)
    r = np.subtract(w, fixed)
    coeff = np.sign(r)
    coeff *= sim_c
    sim_sum = float(np.abs(r, out=r).sum())

    live = w > floor_eps
    live &= roi
    wfl = np.full(w.shape, floor_eps)
    np.copyto(wfl, w, where=live)
    res = r
    res.fill(0.0)
    np.log(wfl, out=res, where=roi)
    np.subtract(res, pred_log, out=res, where=roi)
    mf_sum = float(np.multiply(res, res).sum())
    np.multiply(res, mf_c * 2.0, out=res, where=live)
    np.divide(res, wfl, out=res, where=live)
    np.add(coeff, res, out=coeff, where=live)

    coeff = coeff.reshape(-1)
    for a, part in enumerate(parts):
        part *= coeff
        grad_out[..., a] += part.reshape(w.shape)
    return sim_sum, mf_sum


def _along(axis, index):
    """Index tuple selecting `index` (an int or a slice) along one axis."""
    return (slice(None),) * axis + (index,)


def field_diff(u, axis, out):
    """First difference of a (nx, ny, nz, 3) field along one spatial axis.

    Central (u[i+1] - u[i-1]) / 2 inside, one-sided at both borders: the
    same operations, hence the same bits, as np.gradient with spacing 1.
    Writes into `out` (shaped like u) and returns it.  Needs at least 2
    voxels along the axis.
    """
    n = u.shape[axis]
    if n < 2:
        raise ValueError(f"need at least 2 voxels along axis {axis} to differentiate")
    at = lambda i: _along(axis, i)  # noqa: E731
    inner = out[at(slice(1, -1))]
    np.subtract(u[at(slice(2, None))], u[at(slice(None, -2))], out=inner)
    inner /= 2.0
    np.subtract(u[at(1)], u[at(0)], out=out[at(0)])
    np.subtract(u[at(n - 1)], u[at(n - 2)], out=out[at(n - 1)])
    return out


def field_diff_adjoint(w, axis, out):
    """Adjoint of `field_diff`: <diff(a), w> == <a, adjoint(w)> exactly.

    Writes into `out` (shaped like w) and returns it.  With h = 0.5 * w:
    out[i] = h[i-1] - h[i+1] inside, and the one-sided border rows of
    `field_diff` add -w[0] to out[0], w[0] to out[1], w[n-1] to out[n-1]
    and -w[n-1] to out[n-2], in that order.
    """
    n = w.shape[axis]
    at = lambda i: _along(axis, i)  # noqa: E731
    if n == 2:
        np.add(w[at(0)], w[at(1)], out=out[at(1)])
        np.negative(out[at(1)], out=out[at(0)])
        return out
    # out[i] = -h[i+1] up to n-3, 0 above; then out[i] -= out[i-2] from 2 on,
    # which adds h[i-1] (negation is exact)
    np.multiply(w[at(slice(1, -1))], -0.5, out=out[at(slice(None, -2))])
    out[at(slice(-2, None))] = 0.0
    np.subtract(out[at(slice(2, None))], out[at(slice(None, -2))], out=out[at(slice(2, None))])
    out[at(0)] -= w[at(0)]
    out[at(1)] += w[at(0)]
    out[at(n - 1)] += w[at(n - 1)]
    out[at(n - 2)] -= w[at(n - 1)]
    return out


def smooth_loss_grad(u, grad_out, weight):
    """Sum of squared finite-difference Jacobian entries of a vector field.

    Accumulates weight * d(loss)/d(u) into grad_out and returns the raw loss
    (central differences interior, one-sided at borders, per np.gradient).
    The loss sums the per-entry sums in component-major order (u_0 along x,
    y, z, then u_1, then u_2), and each component of grad_out receives
    (weight * 2) * adjoint(diff) along x, then y, then z.
    """
    d = np.empty_like(u)
    work = np.empty_like(u)
    sums = np.empty((3, 3))
    k = weight * 2.0
    for a in range(3):
        field_diff(u, a, d)
        np.multiply(d, d, out=work)
        for c in range(3):
            sums[c, a] = work[..., c].sum()
        field_diff_adjoint(d, a, work)
        work *= k
        grad_out += work
    loss = 0.0
    for s in sums.flat:
        loss += float(s)
    return loss


def set_thread_budget(n):
    """Let `fan_out` use up to n threads in this process (n >= 1)."""
    global _budget
    if n < 1:
        raise ValueError(f"thread budget must be >= 1, got {n}")
    _budget = n


def _helpers(n):
    """This process's pool of n helper threads, made on first use and made
    again after a fork or a change of budget."""
    global _pool
    pid = os.getpid()
    if _pool is None or _pool[:2] != (pid, n):
        _pool = (pid, n, ThreadPoolExecutor(max_workers=n, thread_name_prefix="dwimoco"))
    return _pool[2]


def fan_out(task, n, elements):
    """[task(0), ..., task(n - 1)], run on up to the thread budget at once.

    Each task works through about `elements` array elements; below
    FAN_OUT_MIN_ELEMENTS the tasks run in the calling thread.  The calling
    thread takes tasks too, so t threads need t - 1 helpers; each thread
    claims the next unclaimed index until none is left.  The results come
    back in task order however the tasks were scheduled, so tasks that write
    only their own outputs give the bits of the serial loop, which is what
    a budget of 1 runs.  If a task raises, the exception is raised once
    every thread has stopped.  A task must not call `fan_out`: the helpers
    would wait on themselves.
    """
    threads = min(_budget, n) if elements >= FAN_OUT_MIN_ELEMENTS else 1
    if threads <= 1:
        return [task(i) for i in range(n)]
    results = [None] * n
    indices = iter(range(n))
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                i = next(indices, None)
            if i is None:
                return
            results[i] = task(i)

    pool = _helpers(threads - 1)
    futures = [pool.submit(drain) for _ in range(threads - 1)]
    try:
        drain()
    finally:
        wait(futures)
    for fut in futures:
        fut.result()
    return results


def _adam_blocks(x, g, m, v, lr, beta1, beta2, eps, bc1, bc2):
    """The Adam step of `adam_update` on one run of blocks, block by block."""
    size = x.size
    scratch = np.empty((2, min(size, ADAM_BLOCK)))
    for lo in range(0, size, ADAM_BLOCK):
        hi = min(lo + ADAM_BLOCK, size)
        xb, gb, mb, vb = x[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
        s, t = scratch[:, : hi - lo]
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


def adam_update(x, g, m, v, lr, beta1, beta2, eps, bc1, bc2):
    """One in-place Adam step on flat arrays; bc1/bc2 are 1 - beta^t.

    m = m * beta1 + (1 - beta1) * g, v = v * beta2 + ((1 - beta2) * g) * g,
    x -= (lr * (m / bc1)) / (sqrt(v / bc2) + eps).  The arrays are worked
    through ADAM_BLOCK elements at a time, with two block-sized scratch
    rows per thread, so every block stays in cache across all the steps and
    no full-size temporary is allocated.  Each thread of `fan_out` takes
    one contiguous run of whole blocks (the last block may be partial), and
    there are only as many runs as have FAN_OUT_MIN_ELEMENTS elements each.
    """
    n_blocks = -(-x.size // ADAM_BLOCK)
    parts = max(1, min(_budget, x.size // FAN_OUT_MIN_ELEMENTS))

    def part(j):
        lo = j * n_blocks // parts * ADAM_BLOCK
        hi = (j + 1) * n_blocks // parts * ADAM_BLOCK
        _adam_blocks(x[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi], lr, beta1, beta2, eps, bc1, bc2)

    fan_out(part, parts, x.size // parts)

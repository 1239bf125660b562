"""Low-level numeric kernels shared by the warping and loss machinery.

Each kernel has one vectorized numpy implementation.  The inner
registration loop calls them thousands of times per case, so they work on
raw arrays and accumulate gradients into caller-owned buffers instead of
allocating per-term results.  The tests check them against independent
code: the scalar `volume.trilinear_sample`, the per-term losses in
`objective`, and finite differences.  All kernels are sequential and
therefore bit-for-bit reproducible across runs.
"""

from __future__ import annotations

import numpy as np


def _clamp_axis(coord, n):
    """Clamp-to-edge index math for one axis (numpy arrays).

    Returns (cell index i0, fraction in [0,1], inside indicator) where the
    sampled value is (1-f)*v[i0] + f*v[i1] with i1 = min(i0+1, n-1).  The
    indicator is 0 where the raw coordinate fell outside [0, n-1]; there the
    clamped value is constant, so its derivative w.r.t. the coordinate is 0.
    """
    inside = (coord >= 0.0) & (coord <= n - 1.0)
    c = np.clip(coord, 0.0, n - 1.0)
    i0 = np.floor(c).astype(np.intp)
    np.clip(i0, 0, max(n - 2, 0), out=i0)
    return i0, c - i0, inside.astype(np.float64)


def warp3d(vol, disp):
    """Trilinear backward warp: out[p] = vol(p + disp[p]), clamp-to-edge."""
    out, _ = warp3d_with_point_grad(vol, disp)
    return out


def warp3d_with_point_grad(vol, disp):
    """Warp plus the derivative of each sample w.r.t. its sample coordinate.

    Returns (out, dout) with dout[..., a] = d out / d coordinate_a, zeroed
    where the coordinate was clamped.
    """
    nx, ny, nz = vol.shape
    x = np.arange(nx, dtype=np.float64)[:, None, None] + disp[..., 0]
    y = np.arange(ny, dtype=np.float64)[None, :, None] + disp[..., 1]
    z = np.arange(nz, dtype=np.float64)[None, None, :] + disp[..., 2]
    x0, fx, inx = _clamp_axis(x, nx)
    y0, fy, iny = _clamp_axis(y, ny)
    z0, fz, inz = _clamp_axis(z, nz)
    x1 = np.minimum(x0 + 1, nx - 1)
    y1 = np.minimum(y0 + 1, ny - 1)
    z1 = np.minimum(z0 + 1, nz - 1)

    c000 = vol[x0, y0, z0]
    c100 = vol[x1, y0, z0]
    c010 = vol[x0, y1, z0]
    c110 = vol[x1, y1, z0]
    c001 = vol[x0, y0, z1]
    c101 = vol[x1, y0, z1]
    c011 = vol[x0, y1, z1]
    c111 = vol[x1, y1, z1]

    c00 = c000 * (1 - fx) + c100 * fx
    c10 = c010 * (1 - fx) + c110 * fx
    c01 = c001 * (1 - fx) + c101 * fx
    c11 = c011 * (1 - fx) + c111 * fx
    c0 = c00 * (1 - fy) + c10 * fy
    c1 = c01 * (1 - fy) + c11 * fy
    out = c0 * (1 - fz) + c1 * fz

    dx0 = (c100 - c000) * (1 - fy) + (c110 - c010) * fy
    dx1 = (c101 - c001) * (1 - fy) + (c111 - c011) * fy
    dout = np.empty(vol.shape + (3,), dtype=np.float64)
    dout[..., 0] = (dx0 * (1 - fz) + dx1 * fz) * inx
    dout[..., 1] = ((c10 - c00) * (1 - fz) + (c11 - c01) * fz) * iny
    dout[..., 2] = (c1 - c0) * inz
    return out, dout


def match_terms(vol, disp, fixed, pred_log, roi, floor_eps, sim_c, mf_c, grad_out):
    """Fused similarity + model-fit contribution of one b-value image.

    Warps `vol` by `disp`, returns the L1 distance to `fixed` (sum over all
    voxels) and the squared log residual against `pred_log` (sum over roi
    voxels), and adds the chain-ruled gradient w.r.t. `disp` into
    `grad_out` using the prefactors sim_c (applied to the L1 subgradient)
    and mf_c (applied to 2 * residual / warped_value).  Warped values below
    floor_eps contribute log(floor_eps) and a zero model-fit gradient.
    """
    w, dout = warp3d_with_point_grad(vol, disp)
    r = w - fixed
    sim_sum = float(np.abs(r).sum())
    coeff = np.sign(r) * sim_c
    wfl = np.where(w > floor_eps, w, floor_eps)
    res = np.where(roi, np.log(wfl) - pred_log, 0.0)
    mf_sum = float((res * res).sum())
    live = roi & (w > floor_eps)
    coeff = coeff + np.where(live, mf_c * 2.0 * res / wfl, 0.0)
    grad_out += coeff[..., None] * dout
    return sim_sum, mf_sum


def axis_diff(a, axis):
    """First difference along one axis, matching np.gradient with spacing 1."""
    return np.gradient(a, axis=axis)


def axis_diff_adjoint(w, axis):
    """Adjoint of `axis_diff`: <diff(a), w> == <a, adjoint(w)> exactly."""
    w = np.moveaxis(w, axis, 0)
    v = np.zeros_like(w)
    n = w.shape[0]
    if n == 2:
        v[0] = -(w[0] + w[1])
        v[1] = w[0] + w[1]
    else:
        v[2:] += 0.5 * w[1:-1]
        v[: n - 2] -= 0.5 * w[1:-1]
        v[0] -= w[0]
        v[1] += w[0]
        v[n - 1] += w[n - 1]
        v[n - 2] -= w[n - 1]
    return np.moveaxis(v, 0, axis)


def smooth_loss_grad(u, grad_out, weight):
    """Sum of squared finite-difference Jacobian entries of a vector field.

    Accumulates weight * d(loss)/d(u) into grad_out and returns the raw loss
    (central differences interior, one-sided at borders, per np.gradient).
    """
    loss = 0.0
    for c in range(3):
        for a in range(3):
            d = axis_diff(u[..., c], a)
            loss += float((d * d).sum())
            grad_out[..., c] += weight * 2.0 * axis_diff_adjoint(d, a)
    return loss


def adam_update(x, g, m, v, lr, beta1, beta2, eps, bc1, bc2):
    """One in-place Adam step on flat arrays; bc1/bc2 are 1 - beta^t."""
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    x -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


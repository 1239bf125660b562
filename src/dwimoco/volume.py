"""3D/4D containers and spatial primitives: sampling, warping, composition,
gaussian blur.

All coordinates and displacements are in voxel units; voxel spacing is
carried as metadata only.  `warp_series` is the one warp of a whole
series, one b-value image per thread task (`_kernels.fan_out_ranges`):
`pipeline.run_case` resamples its input with it and `objective.total_loss`
warps its moving series.  Arrays are indexed data[x, y, z]; the on-disk
x-fastest layout belongs to `io`.  `gaussian_blur` returns the bits of
SciPy's `ndimage.gaussian_filter(data, sigma, mode="nearest")` in numpy
alone, so the package needs no SciPy at run time; SciPy is the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels

# Bound at import: `warp_series` warps on helper threads, which must not
# enter the names a tracer wraps in `_kernels` (perfbench/spans.py keeps one
# span stack for all threads).
_warp3d = _kernels.warp3d


class DimensionMismatchError(ValueError):
    """Operands live on different voxel grids."""


class EmptyRoiError(ValueError):
    """An ROI-mean signal or the model-fit loss needs at least one ROI voxel."""


class DegenerateSeriesError(ValueError):
    """Series cannot be normalized (non-positive maximum at b=0)."""


def _as_volume_array(data) -> np.ndarray:
    arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
    if arr.ndim != 3:
        raise ValueError(f"expected a 3-d array, got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise ValueError(f"all dims must be >= 1, got {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ScalarVolume:
    """One 3D image; data[x, y, z], float64, read-only after construction."""

    data: np.ndarray
    spacing: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        object.__setattr__(self, "data", _as_volume_array(self.data))
        object.__setattr__(self, "spacing", tuple(float(s) for s in self.spacing))
        if len(self.spacing) != 3:
            raise ValueError("spacing must have 3 entries")

    @property
    def dims(self) -> tuple:
        return self.data.shape


def checked_bvalues(bvalues) -> tuple:
    """bvalues as floats; ValueError unless there are at least 2, all finite,
    the first 0 and the rest strictly increasing."""
    bvals = tuple(float(b) for b in bvalues)
    if len(bvals) < 2:
        raise ValueError("need at least 2 b-values")
    if not np.isfinite(bvals).all():
        raise ValueError(f"b-values must be finite, got {bvals}")
    if bvals[0] != 0.0:
        raise ValueError(f"first b-value must be 0, got {bvals}")
    if any(b1 >= b2 for b1, b2 in zip(bvals, bvals[1:])):
        raise ValueError(f"b-values must be strictly increasing, got {bvals}")
    return bvals


@dataclass(frozen=True, eq=False)
class BValueSeries:
    """Per-b-value image stack: bvalues[0] == 0, strictly ascending."""

    bvalues: tuple
    volumes: tuple

    def __post_init__(self):
        bvals = checked_bvalues(self.bvalues)
        vols = tuple(self.volumes)
        object.__setattr__(self, "bvalues", bvals)
        object.__setattr__(self, "volumes", vols)
        if len(bvals) != len(vols):
            raise ValueError("bvalues and volumes length mismatch")
        dims = vols[0].dims
        for v in vols:
            if v.dims != dims:
                raise DimensionMismatchError("all volumes must share dims")
            if not np.isfinite(v.data).all():
                raise ValueError("signal values must be finite")
            if float(v.data.min()) < 0.0:
                raise ValueError("signal values must be >= 0")

    @property
    def dims(self) -> tuple:
        return self.volumes[0].dims

    @property
    def b_count(self) -> int:
        return len(self.bvalues)

    def stack(self) -> np.ndarray:
        """(B, nx, ny, nz) copy of all volumes."""
        return np.stack([v.data for v in self.volumes])


@dataclass(frozen=True, eq=False)
class RoiMask:
    """Binary region-of-interest mask on the same grid as the series."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.data).astype(bool))
        if arr.ndim != 3:
            raise ValueError(f"expected a 3-d mask, got shape {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def dims(self) -> tuple:
        return self.data.shape

    @property
    def count(self) -> int:
        return int(self.data.sum())


@dataclass(frozen=True, eq=False)
class DisplacementField:
    """Dense per-voxel displacement u(p) in voxel units; data[x, y, z, 0:3]."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        if arr.ndim != 4 or arr.shape[-1] != 3:
            raise ValueError(f"expected shape (nx, ny, nz, 3), got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("displacement components must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def dims(self) -> tuple:
        return self.data.shape[:3]

    @classmethod
    def zero(cls, dims) -> "DisplacementField":
        return cls(np.zeros(tuple(dims) + (3,), dtype=np.float64))


def trilinear_sample(vol: ScalarVolume, point) -> float:
    """Trilinear interpolation at a voxel-space point, clamp-to-edge.

    Total on finite points: out-of-bounds coordinates are clamped to the
    border, so the result is always a convex combination of the 8
    surrounding voxel values.
    """
    x, y, z = (float(c) for c in point)
    if not (np.isfinite(x) and np.isfinite(y) and np.isfinite(z)):
        raise ValueError("point components must be finite")
    data = vol.data
    nx, ny, nz = data.shape
    x = min(max(x, 0.0), nx - 1.0)
    y = min(max(y, 0.0), ny - 1.0)
    z = min(max(z, 0.0), nz - 1.0)
    x0 = min(int(x), max(nx - 2, 0))
    y0 = min(int(y), max(ny - 2, 0))
    z0 = min(int(z), max(nz - 2, 0))
    x1 = min(x0 + 1, nx - 1)
    y1 = min(y0 + 1, ny - 1)
    z1 = min(z0 + 1, nz - 1)
    fx, fy, fz = x - x0, y - y0, z - z0
    c00 = data[x0, y0, z0] * (1 - fx) + data[x1, y0, z0] * fx
    c10 = data[x0, y1, z0] * (1 - fx) + data[x1, y1, z0] * fx
    c01 = data[x0, y0, z1] * (1 - fx) + data[x1, y0, z1] * fx
    c11 = data[x0, y1, z1] * (1 - fx) + data[x1, y1, z1] * fx
    c0 = c00 * (1 - fy) + c10 * fy
    c1 = c01 * (1 - fy) + c11 * fy
    return float(c0 * (1 - fz) + c1 * fz)


def warp(vol: ScalarVolume, disp: DisplacementField) -> ScalarVolume:
    """Backward warp: out(p) = vol sampled at p + u(p)."""
    if vol.dims != disp.dims:
        raise DimensionMismatchError(f"volume dims {vol.dims} != field dims {disp.dims}")
    return ScalarVolume(_kernels.warp3d(vol.data, disp.data), vol.spacing)


def warp_series(series: BValueSeries, fields, scale: float = 1.0) -> BValueSeries:
    """The series divided by scale and each b-value image backward-warped by
    its own field: fields holds one (nx, ny, nz, 3) displacement array per
    b-value, in order, float64 or float32.

    One b-value image per task on `_kernels.fan_out_ranges`; each task
    divides its image by scale into an image-sized float64 row and warps
    that row, slab by slab (`_kernels.slabs`), in 11 slab-sized float64
    rows.  An image's bits are those of `warp` of the image divided by
    scale, since a float32 component is exact in float64; with scale the
    series' normalization scale they are those of `warp` on
    `normalize_series(series)`, of which no copy is made.  All-zero fields
    sample every voxel at its own place, with the other corners of its cell
    weighted by 0, so they give the bits of the divided image itself, but
    for a -0.0 voxel, which comes back as +0.0 unless every corner of its
    cell is -0.0 too.  Raises
    DimensionMismatchError, before any work, unless there is one field per
    b-value, each of the series' dims.
    """
    fields = list(fields)
    if len(fields) != series.b_count:
        raise DimensionMismatchError("need exactly one field per b-value")
    dims = series.dims
    if any(f.shape != dims + (3,) for f in fields):
        raise DimensionMismatchError(f"field shapes must be {dims + (3,)}")
    vols = series.volumes
    warped = [np.empty(dims) for _ in vols]

    def rows(lo, hi):
        return np.empty(vols[0].data.size), np.empty((11, _kernels.slab_voxels(dims)))

    def warp_images(lo, hi, scratch):
        image, slab_rows = scratch
        for i in range(lo, hi):
            np.divide(vols[i].data.reshape(-1), scale, out=image)
            _warp3d(image.reshape(dims), fields[i], warped[i], slab_rows)

    _kernels.fan_out_ranges(warp_images, series.b_count, len(fields) * fields[0].size, rows)
    return BValueSeries(
        series.bvalues, tuple(ScalarVolume(w, v.spacing) for w, v in zip(warped, vols))
    )


def normalize_series(series: BValueSeries):
    """Scale the whole series by 1 / max(S at b=0).

    Returns (normalized series, scale).  ADC estimates are invariant under
    this scaling; log-S0 shifts by log(scale).
    """
    scale = float(series.volumes[0].data.max())
    if scale <= 0.0:
        raise DegenerateSeriesError(f"degenerate series: max(S0) = {scale}")
    if scale == 1.0:
        return series, 1.0
    vols = tuple(ScalarVolume(v.data / scale, v.spacing) for v in series.volumes)
    return BValueSeries(series.bvalues, vols), scale


def compose_displacements(last: DisplacementField, prev: DisplacementField) -> DisplacementField:
    """Single field equivalent to warping by `prev` and then by `last`.

    composed(p) = last(p) + prev(p + last(p)), with `prev` sampled
    trilinearly, clamp-to-edge, exactly as `trilinear_sample` does.
    warp(warp(v, prev), last) and warp(v, composed) are not equal: the
    first interpolates twice, the second once.  For smooth v and fields the
    gap is second order in the voxel size in the interior.  Within
    max|last| + max|prev| voxels of the border the two routes differ by
    design: one clamps the intermediate image, the other the composed
    coordinate.
    """
    if last.dims != prev.dims:
        raise DimensionMismatchError("fields must share dims")
    out = np.empty_like(prev.data)
    for c in range(3):
        out[..., c] = _kernels.warp3d(np.ascontiguousarray(prev.data[..., c]), last.data)
    out += last.data
    return DisplacementField(out)


def gaussian_blur(data, sigma: float) -> np.ndarray:
    """Separable gaussian blur of a 3-d array, edges extended (clamp).

    Bit for bit SciPy's `ndimage.gaussian_filter(data, sigma, mode="nearest")`:
    the same kernel (radius int(4 sigma + 0.5), normalized by its sum), the
    axes in order 0, 1, 2, and per output voxel the centre tap first, then
    the symmetric pairs from the outermost in, as SciPy's C loop adds them.
    """
    r = int(4.0 * sigma + 0.5)
    w = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    w /= w.sum()
    out = np.asarray(data, dtype=np.float64)
    for axis in range(3):
        n = out.shape[axis]
        padded = np.moveaxis(out, axis, 0)[np.clip(np.arange(-r, n + r), 0, n - 1)]
        acc = padded[r : r + n] * w[r]
        for k in range(r, 0, -1):
            acc += (padded[r - k : r - k + n] + padded[r + k : r + k + n]) * w[r - k]
        out = np.moveaxis(acc, 0, axis)
    return out

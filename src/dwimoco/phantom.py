"""Synthetic ground truth: parameter maps, decay series and motion.

The phantom is a smoothed ellipsoidal "lung" (high diffusivity) inside a
uniform background, with an ROI eroded a little from the ellipsoid so the
boundary blur barely touches the ROI statistics.  The boundary blur is
`volume.gaussian_blur` at BOUNDARY_SIGMA, which has the bits of SciPy's
`ndimage.gaussian_filter(..., mode="nearest")`, so every simulated case keeps
its bits without SciPy.  Everything is a pure function of (spec, seed).
The motion fields evaluate each random sinusoidal mode only on the axes
along which it varies, with the bits of the full-grid formula, and hold at
most two image-sized float64 arrays at a time besides the field itself.

What every case shares is a module constant: BACKGROUND_ADC, LUNG_S0,
BACKGROUND_S0, ROI_MARGIN, BOUNDARY_SIGMA, MOTION_SMOOTHNESS, S0_TEXTURE
and ADC_TEXTURE.  STUDY_NOISE_SIGMA and STUDY_MOTION_AMPLITUDE are the
noise and motion of the simulated study cases: `dwimoco simulate` writes
its case at both, and `pipeline.make_cohort_case_specs` draws its cohort at
that noise by default.  A bare PhantomSpec has neither noise nor motion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal_model import ParameterMaps, forward_signal
from .volume import (
    BValueSeries,
    DisplacementField,
    RoiMask,
    ScalarVolume,
    checked_bvalues,
    gaussian_blur,
    warp,
)

DEFAULT_BVALUES = (0.0, 50.0, 100.0, 200.0, 400.0, 600.0)
BACKGROUND_ADC = 1.0e-3  # mm^2/s
LUNG_S0 = 1.0
BACKGROUND_S0 = 0.55
ROI_MARGIN = 2.0  # erosion of the ROI vs. the ellipsoid, voxels
BOUNDARY_SIGMA = 1.0  # gaussian blur of the lung boundary, voxels
MOTION_SMOOTHNESS = 48.0  # approx. wavelength of the fields, voxels
S0_TEXTURE = 0.15  # relative amplitude of smooth S0 variation in the lung
ADC_TEXTURE = 0.08  # relative amplitude of smooth ADC variation in the lung
STUDY_NOISE_SIGMA = 0.02  # noise std of a simulated study case, fraction of max S0
STUDY_MOTION_AMPLITUDE = 3.0  # max displacement of a simulated study case, voxels
_NON_NEGATIVE_FIELDS = ("lung_adc", "noise_sigma", "motion_amplitude")


@dataclass(frozen=True)
class PhantomSpec:
    """Geometry, lung ADC, noise, motion and b-values of a synthetic case.

    dims are three integers >= 2.  The lung ellipsoid sits at the volume
    center with radii of about 30% of each extent (at least 2 voxels), so
    dims must leave room for it.  Every number must be finite and >= 0,
    and the b-values as `BValueSeries` requires them.
    """

    dims: tuple = (96, 96, 16)
    lung_adc: float = 2.5e-3  # mm^2/s
    noise_sigma: float = 0.0  # additive noise std, fraction of max S0
    motion_amplitude: float = 0.0  # max displacement magnitude, voxels
    bvalues: tuple = DEFAULT_BVALUES
    seed: int = 0

    def __post_init__(self):
        dims = tuple(self.dims)
        if len(dims) != 3 or not all(isinstance(n, (int, np.integer)) and n >= 2 for n in dims):
            raise ValueError(f"phantom dims must be three integers >= 2, got {list(dims)}")
        for name in _NON_NEGATIVE_FIELDS:
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        checked_bvalues(self.bvalues)
        center, radii = self.center(), self.radii()
        if any(c - r < 0 or c + r > n - 1 for c, r, n in zip(center, radii, self.dims)):
            raise ValueError(
                f"roi out of bounds: center {center} radii {radii} in dims {self.dims}"
            )

    def center(self) -> tuple:
        return tuple((n - 1) / 2.0 for n in self.dims)

    def radii(self) -> tuple:
        nx, ny, nz = self.dims
        return (max(0.3 * nx, 2.0), max(0.3 * ny, 2.0), max(0.25 * nz, 2.0))


def _ellipsoid_mask(dims, center, radii) -> np.ndarray:
    grids = np.ogrid[tuple(slice(0, n) for n in dims)]
    q = sum(((g - c) / r) ** 2 for g, c, r in zip(grids, center, radii))
    return q <= 1.0


def _texture(dims, center, radii) -> np.ndarray:
    """Fixed smooth zero-mean modulation pattern, ~2 cycles per lung radius."""
    grids = np.ogrid[tuple(slice(0, n) for n in dims)]
    t = 1.0
    for g, c, r in zip(grids, center, radii):
        t = t * np.sin(2.0 * np.pi * (g - c) / r + 0.7)
    u = 1.0
    for g, c, r in zip(grids, center, radii):
        u = u * np.cos(1.3 * np.pi * (g - c) / r + 0.3)
    return t + 0.6 * u


def make_phantom(spec: PhantomSpec):
    """Build ground-truth parameter maps and the lung ROI.

    Returns (ParameterMaps, RoiMask).  The ADC and S0 maps blend lung and
    background values across a gaussian-smoothed ellipsoid boundary; the ROI
    is the ellipsoid eroded by ROI_MARGIN voxels, so the ROI-mean true ADC
    sits within a couple percent of lung_adc.
    """
    dims = spec.dims
    center = spec.center()
    radii = spec.radii()
    lung = _ellipsoid_mask(dims, center, radii).astype(np.float64)
    blend = gaussian_blur(lung, BOUNDARY_SIGMA)
    adc = BACKGROUND_ADC + (spec.lung_adc - BACKGROUND_ADC) * blend
    s0 = BACKGROUND_S0 + (LUNG_S0 - BACKGROUND_S0) * blend
    # smooth parenchyma-like texture so per-voxel decay is motion-sensitive
    # away from the boundary too; zero-mean modulation restricted to the lung
    tex = _texture(dims, center, radii)
    s0 = s0 * (1.0 + S0_TEXTURE * blend * tex)
    adc = adc * (1.0 + ADC_TEXTURE * blend * tex)
    # keep at least half of each radius so small phantoms retain an ROI
    roi_radii = tuple(max(r - ROI_MARGIN, 0.5 * r) for r in radii)
    roi = RoiMask(_ellipsoid_mask(dims, center, roi_radii))
    if roi.count == 0:
        raise ValueError("empty ROI")
    maps = ParameterMaps(ScalarVolume(np.log(s0)), ScalarVolume(adc))
    return maps, roi


def simulate_series(maps: ParameterMaps, roi: RoiMask, bvalues, noise_sigma: float, seed: int):
    """Generate a decay series from the maps plus clipped Gaussian noise.

    Noise std is noise_sigma * max(S0); negative samples clip to 0.
    """
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    rng = np.random.default_rng(seed)
    s0 = np.exp(maps.log_s0.data)
    adc = maps.adc.data
    sigma = noise_sigma * float(s0.max())
    vols = []
    for b in bvalues:
        clean = forward_signal(s0, adc, float(b))
        if sigma > 0:
            noisy = clean + rng.normal(0.0, sigma, size=clean.shape)
            clean = np.maximum(noisy, 0.0)
        vols.append(ScalarVolume(clean))
    return BValueSeries(tuple(float(b) for b in bvalues), tuple(vols))


def _smooth_random_field(dims, amplitude, rng) -> DisplacementField:
    """Low-frequency random field with max voxel magnitude == amplitude.

    Each component is a bulk translation term plus a few sinusoidal modes
    whose per-axis cycle counts are capped by dims / MOTION_SMOOTHNESS; the
    whole field is then rescaled so its largest displacement vector has
    length `amplitude`.

    A mode `amp * sin(2 pi (f0 x + f1 y + f2 z) + phase)` is evaluated only
    on the axes whose cycle count is non-zero and broadcast-added into its
    component, and the magnitude is summed as (u0^2 + u1^2) + u2^2 over
    component views.  Both keep the bits of the full-grid formula, whose
    (u * u).sum(axis=-1) adds the squares in that order: the grids and
    cycle counts are >= 0, so a dropped term is +0.0 added to a partial sum
    >= +0.0, and the kept terms run in x, y, z order.  Besides the returned
    field, at most two image-sized float64 arrays are live at a time (5.90
    MB traced at 96x96x16, the field being 3.54 MB of it).
    """
    if amplitude == 0.0:
        return DisplacementField.zero(dims)
    max_cycles = [max(1, int(n / MOTION_SMOOTHNESS)) for n in dims]
    # axis k's grid, shaped to vary along axis k only
    grids = [
        (np.arange(n, dtype=np.float64) / n).reshape([n if a == k else 1 for a in range(3)])
        for k, n in enumerate(dims)
    ]
    u = np.zeros(tuple(dims) + (3,), dtype=np.float64)
    # bulk translation plus low-frequency deformation; the through-plane
    # component dominates because that is where a few voxels of motion
    # carry anatomy across the thin slab
    for c, t_std in enumerate((0.6, 0.6, 1.0)):
        u[..., c] += float(rng.normal(0.0, t_std))
        for _ in range(2):
            f = [int(rng.integers(0, m + 1)) for m in max_cycles]
            if all(v == 0 for v in f):
                f[int(rng.integers(0, 3))] = 1
            amp = float(rng.normal(0.0, 0.4))
            phase = float(rng.uniform(0.0, 2.0 * np.pi))
            # f0 x + f1 y + f2 z over the mode's own axes, then its sine in place
            wave = None
            for fk, g in zip(f, grids):
                if fk:
                    wave = fk * g if wave is None else wave + fk * g
            np.sin(2.0 * np.pi * wave + phase, out=wave)
            u[..., c] += amp * wave
    mag = np.sqrt((u[..., 0] * u[..., 0] + u[..., 1] * u[..., 1] + u[..., 2] * u[..., 2]).max())
    if mag > 0:
        u *= amplitude / mag
    return DisplacementField(u)


def apply_synthetic_motion(series: BValueSeries, spec: PhantomSpec, seed: int):
    """Deform every b > 0 image by its own smooth random field.

    The b = 0 image stays fixed as the reference frame.  Per-image severity
    varies (fetal motion leaves some acquisitions nearly clean and corrupts
    others fully): each field's max magnitude is a uniform[0.3, 1] fraction
    of spec.motion_amplitude.  Returns the moved series and the true
    per-b-value fields (zero field first).
    """
    rng = np.random.default_rng(seed)
    fields = [DisplacementField.zero(series.dims)]
    vols = [series.volumes[0]]
    for vol in series.volumes[1:]:
        severity = float(rng.uniform(0.3, 1.0)) if spec.motion_amplitude > 0 else 0.0
        f = _smooth_random_field(series.dims, severity * spec.motion_amplitude, rng)
        fields.append(f)
        vols.append(warp(vol, f))
    return BValueSeries(series.bvalues, tuple(vols)), fields


def simulate_case(spec: PhantomSpec):
    """(truth maps, ROI, motion-free series, moved series, true fields) of a
    simulated case: noise from spec.seed, motion from spec.seed + 1."""
    maps, roi = make_phantom(spec)
    clean = simulate_series(maps, roi, spec.bvalues, spec.noise_sigma, spec.seed)
    moved, true_fields = apply_synthetic_motion(clean, spec, spec.seed + 1)
    return maps, roi, clean, moved, true_fields

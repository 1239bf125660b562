import tracemalloc

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from dwimoco import _kernels, phantom
from dwimoco.volume import (
    BValueSeries,
    DegenerateSeriesError,
    DimensionMismatchError,
    DisplacementField,
    RoiMask,
    ScalarVolume,
    compose_displacements,
    gaussian_blur,
    normalize_series,
    trilinear_sample,
    warp,
    warp_series,
)
from dwimoco.signal_model import forward_signal, lls_fit


def constant_volume(dims, value):
    return ScalarVolume(np.full(dims, value, dtype=np.float64))


def ramp_volume(dims, axis=0):
    arr = np.zeros(dims)
    idx = [None, None, None]
    idx[axis] = slice(None)
    shape = [1, 1, 1]
    shape[axis] = dims[axis]
    arr += np.arange(dims[axis], dtype=np.float64).reshape(shape)
    return ScalarVolume(arr)


def model_series(dims, bvalues=(0.0, 50.0, 100.0, 200.0, 400.0, 600.0), s0=1.0, adc=3e-3):
    vols = tuple(constant_volume(dims, forward_signal(s0, adc, b)) for b in bvalues)
    return BValueSeries(bvalues, vols)


def _analytic_motion_case(scale):
    """Smooth volume and two smooth fields on an (8, 7, 6) * scale grid.

    Volume and motion are fixed in physical units (the domain is the unit
    cube), so a finer grid samples the same functions and the field
    amplitudes, in voxels, grow with `scale`.
    """
    dims = tuple(scale * n for n in (8, 7, 6))
    x = np.arange(dims[0])[:, None, None] / dims[0]
    y = np.arange(dims[1])[None, :, None] / dims[1]
    z = np.arange(dims[2])[None, None, :] / dims[2]
    vol = ScalarVolume(np.sin(2 * np.pi * x) + np.cos(2 * np.pi * y) + z)
    g1 = np.sin(2 * np.pi * (x + y + z)) * np.ones(dims)
    g2 = np.cos(2 * np.pi * (x - y + z)) * np.ones(dims)
    f1 = DisplacementField(0.3 * scale * g1[..., None] * np.ones(3))
    f2 = DisplacementField(0.2 * scale * g2[..., None] * np.ones(3))
    return vol, f1, f2


class TestScalarVolume:
    def test_rejects_wrong_rank_and_length(self):
        with pytest.raises(ValueError):
            ScalarVolume(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            ScalarVolume(np.zeros((2, 0, 2)))

    def test_data_is_read_only(self):
        vol = constant_volume((2, 2, 2), 1.0)
        with pytest.raises(ValueError):
            vol.data[0, 0, 0] = 5.0


class TestSeriesValidation:
    def test_requires_leading_zero_bvalue(self):
        v = constant_volume((2, 2, 2), 1.0)
        with pytest.raises(ValueError):
            BValueSeries((50.0, 100.0), (v, v))

    def test_requires_strictly_increasing(self):
        v = constant_volume((2, 2, 2), 1.0)
        with pytest.raises(ValueError):
            BValueSeries((0.0, 100.0, 100.0), (v, v, v))

    def test_rejects_negative_signal(self):
        v = constant_volume((2, 2, 2), 1.0)
        neg = constant_volume((2, 2, 2), -0.1)
        with pytest.raises(ValueError):
            BValueSeries((0.0, 100.0), (v, neg))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_signal(self, bad):
        v = constant_volume((2, 2, 2), 1.0)
        data = np.ones((2, 2, 2))
        data[1, 0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            BValueSeries((0.0, 100.0), (v, ScalarVolume(data)))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            BValueSeries(
                (0.0, 100.0),
                (constant_volume((2, 2, 2), 1.0), constant_volume((2, 2, 3), 1.0)),
            )


class TestTrilinearSample:
    def test_constant_field(self):
        vol = constant_volume((4, 4, 4), 5.0)
        assert trilinear_sample(vol, (1.5, 2.5, 0.5)) == pytest.approx(5.0, abs=1e-15)

    def test_on_grid_sample(self, rng):
        data = rng.random((4, 5, 3))
        vol = ScalarVolume(data)
        assert trilinear_sample(vol, (2, 3, 1)) == pytest.approx(data[2, 3, 1], rel=1e-15)

    def test_two_voxel_interpolation(self):
        # hand evaluation: (1 - 0.25) * 0 + 0.25 * 10 = 2.5
        vol = ScalarVolume(np.array([0.0, 10.0]).reshape(2, 1, 1))
        assert trilinear_sample(vol, (0.25, 0.0, 0.0)) == pytest.approx(2.5, abs=1e-15)

    def test_clamps_out_of_bounds(self, rng):
        data = rng.random((3, 3, 3))
        vol = ScalarVolume(data)
        assert trilinear_sample(vol, (-5.0, 0.0, 0.0)) == pytest.approx(data[0, 0, 0])
        assert trilinear_sample(vol, (10.0, 2.0, 2.0)) == pytest.approx(data[2, 2, 2])

    def test_convex_combination_property(self, rng):
        data = rng.random((5, 4, 3))
        vol = ScalarVolume(data)
        for _ in range(200):
            p = rng.uniform(-1, 6, size=3)
            s = trilinear_sample(vol, p)
            assert data.min() - 1e-12 <= s <= data.max() + 1e-12

    def test_rejects_non_finite_point(self):
        vol = constant_volume((2, 2, 2), 1.0)
        with pytest.raises(ValueError):
            trilinear_sample(vol, (np.nan, 0, 0))


class TestWarp:
    def test_zero_field_is_identity(self, rng):
        vol = ScalarVolume(rng.random((6, 5, 4)))
        out = warp(vol, DisplacementField.zero(vol.dims))
        np.testing.assert_array_equal(out.data, vol.data)

    def test_unit_shift_of_linear_ramp(self):
        dims = (8, 4, 3)
        vol = ramp_volume(dims, axis=0)
        field = DisplacementField(np.tile([1.0, 0.0, 0.0], dims + (1,)))
        out = warp(vol, field)
        interior = out.data[: dims[0] - 1]
        expected = vol.data[: dims[0] - 1] + 1.0
        np.testing.assert_allclose(interior, expected, rtol=0, atol=1e-12)

    def test_constant_volume_invariant(self, rng):
        vol = constant_volume((5, 5, 4), 3.25)
        field = DisplacementField(rng.uniform(-3, 3, (5, 5, 4, 3)))
        np.testing.assert_allclose(warp(vol, field).data, 3.25, rtol=0, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            warp(constant_volume((3, 3, 3), 1.0), DisplacementField.zero((3, 3, 4)))

    def test_matches_per_point_sampling(self, rng):
        # warp must agree with scalar trilinear_sample at every voxel
        vol = ScalarVolume(rng.random((5, 4, 6)))
        field = DisplacementField(rng.uniform(-2.5, 2.5, (5, 4, 6, 3)))
        out = warp(vol, field)
        for p in [(0, 0, 0), (4, 3, 5), (2, 1, 3), (1, 3, 0), (3, 2, 4)]:
            expected = trilinear_sample(vol, np.array(p, dtype=float) + field.data[p])
            assert out.data[p] == pytest.approx(expected, rel=1e-14)

    def test_warped_values_within_input_range(self, rng):
        vol = ScalarVolume(rng.random((6, 6, 4)))
        field = DisplacementField(rng.uniform(-4, 4, (6, 6, 4, 3)))
        out = warp(vol, field)
        assert out.data.min() >= vol.data.min() - 1e-12
        assert out.data.max() <= vol.data.max() + 1e-12

    def test_warp_of_a_three_slab_image_allocates_its_output_and_one_slabs_rows(self, rng):
        # 96x96x16 is three slabs of 32 x-planes: the warp works in 11
        # float64 rows of one slab, where rows of the whole image would
        # take 11 outputs
        dims = (96, 96, 16)
        assert len(_kernels.slabs(dims)) == 3
        vol = ScalarVolume(rng.random(dims))
        field = DisplacementField(rng.uniform(-2.0, 2.0, dims + (3,)))
        out_bytes = vol.data.nbytes
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = warp(vol, field)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert out.data.nbytes == out_bytes
        assert out_bytes < peak < out_bytes + 11 * 8 * _kernels.GROUP_VOXELS, peak

    @pytest.fixture
    def no_work(self, monkeypatch):
        def fan_out_ranges(*args):
            raise AssertionError("the fields are checked before any work")

        monkeypatch.setattr(_kernels, "fan_out_ranges", fan_out_ranges)

    def test_warp_series_requires_one_field_per_bvalue(self, no_work):
        series = model_series((3, 3, 3))
        with pytest.raises(DimensionMismatchError, match="one field per b-value"):
            warp_series(series, [np.zeros((3, 3, 3, 3))])

    @pytest.mark.parametrize(
        "shape", [(3, 3, 4, 3), (3, 3, 3, 2), (3, 3, 3)], ids=["grid", "components", "rank"]
    )
    def test_warp_series_requires_fields_of_the_series_dims(self, no_work, shape):
        series = model_series((3, 3, 3))
        fields = [np.zeros((3, 3, 3, 3))] * (series.b_count - 1) + [np.zeros(shape)]
        with pytest.raises(DimensionMismatchError, match="field shapes"):
            warp_series(series, fields)


def slab_series():
    """A 6-b-value 80x80x16 series of uniform noise: two slabs of 40
    x-planes an image."""
    rng = np.random.default_rng(11)
    dims = (80, 80, 16)
    assert len(_kernels.slabs(dims)) == 2
    images = tuple(ScalarVolume(rng.uniform(0.05, 2.0, dims)) for _ in range(6))
    return BValueSeries((0.0, 50.0, 100.0, 200.0, 400.0, 600.0), images)


def moved_phantom_series():
    """A 16x16x6 phantom series with motion."""
    spec = phantom.PhantomSpec(dims=(16, 16, 6), noise_sigma=0.02, motion_amplitude=2.0, seed=7)
    return phantom.simulate_case(spec)[3]


@pytest.fixture
def at_budget(monkeypatch):
    """fn(*args) on a thread budget; the size floor of `fan_out_ranges` is
    lowered so that every budget splits the images between threads."""
    monkeypatch.setattr(_kernels, "FAN_OUT_MIN_ELEMENTS", 1)

    def run(budget, fn, *args):
        monkeypatch.setattr(_kernels, "_budget", budget)
        return fn(*args)

    return run


@pytest.mark.parametrize("unit_scale", [False, True], ids=["scaled", "unit_scale"])
@pytest.mark.parametrize("case", ["small", "slabs", "one_slice"])
def test_warping_the_input_by_a_zero_stack_gives_the_normalized_input(
    request, rng, at_budget, case, unit_scale
):
    # pipeline.run_case warps its input by the optimizer's component-major
    # float32 stack, and ends every run with this warp when its last record
    # is not the current series, also a run whose fields never moved; a
    # moved stack gives the bits of `warp` image by image
    series = {
        "small": moved_phantom_series,
        "slabs": slab_series,
        "one_slice": lambda: request.getfixturevalue("one_slice_case")[0],
    }[case]()
    if unit_scale:
        peak = series.volumes[0].data.max()
        series = BValueSeries(
            series.bvalues, tuple(ScalarVolume(v.data / peak) for v in series.volumes)
        )
    normalized, scale = normalize_series(series)
    assert (scale == 1.0) == unit_scale
    zero = np.zeros((series.b_count, 3) + series.dims, np.float32)
    moved = rng.uniform(-2.0, 2.0, zero.shape).astype(np.float32)
    want = [
        warp(ScalarVolume(v.data / scale), DisplacementField(np.moveaxis(u, 0, -1))).data
        for v, u in zip(series.volumes, moved)
    ]
    for budget in (1, 2, 3):
        got = at_budget(budget, warp_series, series, np.moveaxis(zero, 1, -1), scale)
        assert got.bvalues == normalized.bvalues
        for g, w in zip(got.volumes, normalized.volumes):
            assert g.data.dtype == w.data.dtype and g.data.shape == w.data.shape
            assert g.data.tobytes() == w.data.tobytes()
        got = at_budget(budget, warp_series, series, np.moveaxis(moved, 1, -1), scale)
        for g, w in zip(got.volumes, want):
            assert g.data.tobytes() == w.tobytes()


@pytest.mark.parametrize("scale", [1.0, 0.5])
def test_zero_fields_make_negative_zero_positive_unless_its_cell_is_all(scale):
    # each lerp adds lo * g + hi * f, (g, f) = (1, 0) at a voxel's own place:
    # -0.0 + hi * 0 is +0.0 unless hi is -0.0 too
    image = np.full((6, 5, 4), 0.5)
    image[1, 1, 1] = -0.0
    image[3:5, 2:4, 1:3] = -0.0  # the whole cell whose base voxel is (3, 2, 1)
    series = BValueSeries((0.0, 500.0), (ScalarVolume(image), ScalarVolume(image / 2)))
    got = warp_series(series, [np.zeros(image.shape + (3,))] * 2, scale)
    for g, v in zip(got.volumes, series.volumes):
        want = np.abs(v.data / scale)
        want[3, 2, 1] = -0.0
        assert g.data.tobytes() == want.tobytes()


def forward_gradient(field):
    """jac[..., c, a] = u_c[x + e_a] - u_c[x], the forward differences of a
    field as the smoothness term counts them; 0 on the last plane along a."""
    u = field.data
    return np.stack([_kernels.field_diff(u, a, np.full_like(u, np.nan)) for a in range(3)], -1)


class TestSpatialGradient:
    def test_constant_field_zero_jacobian(self):
        field = DisplacementField(np.full((4, 4, 3, 3), 2.5))
        np.testing.assert_array_equal(forward_gradient(field), 0.0)

    def test_unit_shear(self):
        dims = (6, 5, 4)
        u = np.zeros(dims + (3,))
        u[..., 0] = np.arange(dims[0], dtype=float)[:, None, None]
        jac = forward_gradient(DisplacementField(u))
        np.testing.assert_array_equal(jac[:-1, ..., 0, 0], 1.0)
        jac_rest = jac.copy()
        jac_rest[:-1, ..., 0, 0] = 0.0
        np.testing.assert_array_equal(jac_rest, 0.0)

    def test_double_shear_doubles_gradient(self):
        dims = (5, 4, 3)
        u = np.zeros(dims + (3,))
        u[..., 0] = 2.0 * np.arange(dims[0], dtype=float)[:, None, None]
        jac = forward_gradient(DisplacementField(u))
        np.testing.assert_array_equal(jac[:-1, ..., 0, 0], 2.0)
        np.testing.assert_array_equal(jac[-1, ..., 0, 0], 0.0)

    def test_affine_field_constant_jacobian(self, rng):
        dims = (6, 6, 5)
        A = rng.normal(0, 0.5, (3, 3))
        x = np.arange(dims[0])[:, None, None]
        y = np.arange(dims[1])[None, :, None]
        z = np.arange(dims[2])[None, None, :]
        u = np.zeros(dims + (3,))
        for c in range(3):
            u[..., c] = A[c, 0] * x + A[c, 1] * y + A[c, 2] * z
        jac = forward_gradient(DisplacementField(u))
        for a in range(3):
            below = np.moveaxis(jac[..., a], a, 0)  # (n_a, ..., ..., 3)
            np.testing.assert_allclose(
                below[:-1], np.broadcast_to(A[:, a], below[:-1].shape), rtol=0, atol=1e-12
            )
            np.testing.assert_array_equal(below[-1], 0.0)

    def test_needs_two_voxels_per_axis(self, rng):
        # a difference needs two voxels along its axis: a one-voxel z axis
        # has none, while x and y still difference
        jac = forward_gradient(DisplacementField(rng.normal(0, 1, (3, 3, 1, 3))))
        np.testing.assert_array_equal(jac[..., 2], 0.0)
        assert np.all(jac[:-1, ..., 0] != 0.0)
        assert np.all(jac[:, :-1, ..., 1] != 0.0)


class TestNormalizeSeries:
    def test_basic_scaling(self):
        dims = (3, 3, 2)
        vols = (constant_volume(dims, 200.0), constant_volume(dims, 50.0))
        series = BValueSeries((0.0, 500.0), vols)
        normed, scale = normalize_series(series)
        assert scale == 200.0
        assert normed.volumes[0].data.max() == pytest.approx(1.0, rel=1e-15)

    def test_idempotent_when_normalized(self):
        series = model_series((3, 3, 3), s0=1.0)
        normed, scale = normalize_series(series)
        assert scale == 1.0
        assert normed is series

    def test_adc_invariant_under_normalization(self, rng):
        dims = (6, 6, 4)
        bvals = (0.0, 50.0, 100.0, 200.0, 400.0, 600.0)
        s0 = 150.0 + 50.0 * rng.random(dims)
        adc = 1e-3 + 2e-3 * rng.random(dims)
        vols = tuple(ScalarVolume(forward_signal(s0, adc, b)) for b in bvals)
        series = BValueSeries(bvals, vols)
        normed, scale = normalize_series(series)
        fit_raw = lls_fit(series)
        fit_norm = lls_fit(normed)
        np.testing.assert_allclose(fit_norm.adc.data, fit_raw.adc.data, rtol=1e-12)
        np.testing.assert_allclose(
            fit_norm.log_s0.data, fit_raw.log_s0.data - np.log(scale), rtol=0, atol=1e-9
        )

    def test_degenerate_series_error(self):
        dims = (2, 2, 2)
        series = BValueSeries(
            (0.0, 100.0), (constant_volume(dims, 0.0), constant_volume(dims, 0.0))
        )
        with pytest.raises(DegenerateSeriesError, match="degenerate series"):
            normalize_series(series)


class TestComposeDisplacements:
    def test_constant_fields_add(self):
        dims = (4, 4, 3)
        a = DisplacementField(np.tile([0.5, 0.0, -0.25], dims + (1,)))
        b = DisplacementField(np.tile([0.25, 1.0, 0.0], dims + (1,)))
        comp = compose_displacements(a, b)
        np.testing.assert_allclose(
            comp.data, np.tile([0.75, 1.0, -0.25], dims + (1,)), rtol=0, atol=1e-12
        )

    def test_matches_its_formula_exactly(self):
        # composed(p) == last(p) + prev(p + last(p)), prev sampled point by point
        _, prev, last = _analytic_motion_case(1)
        want = np.empty(prev.data.shape)
        for c in range(3):
            prev_c = ScalarVolume(prev.data[..., c])
            for p in np.ndindex(prev.dims):
                want[p + (c,)] = last.data[p + (c,)] + trilinear_sample(
                    prev_c, np.add(p, last.data[p])
                )
        comp = compose_displacements(last, prev)
        np.testing.assert_allclose(comp.data, want, rtol=0, atol=0)

    def test_matches_sequential_warps(self):
        # Warping twice and warping once by the composed field differ by the
        # error of interpolating twice, O(h^2) in the voxel size h for smooth
        # inputs, plus clamp-to-edge effects near the border.  Sample the same
        # physical volume and motion on two grids, leave out the border band,
        # and check that the interior gap shrinks at second order.
        gaps = []
        for scale in (4, 8):
            vol, f1, f2 = _analytic_motion_case(scale)
            band = int(np.ceil(np.abs(f1.data).max() + np.abs(f2.data).max())) + 1
            two_step = warp(warp(vol, f1), f2)
            one_step = warp(vol, compose_displacements(f2, f1))
            interior = (slice(band, -band),) * 3
            gaps.append(float(np.abs(two_step.data - one_step.data)[interior].max()))
        order = np.log2(gaps[0] / gaps[1])
        assert order > 1.5, f"interior gaps {gaps}: observed order {order:.2f}, want 2"


class TestRoiMask:
    def test_count(self):
        mask = np.zeros((3, 3, 3), dtype=bool)
        mask[1, 1, 1] = True
        assert RoiMask(mask).count == 1

    def test_field_requires_finite(self):
        bad = np.zeros((2, 2, 2, 3))
        bad[0, 0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            DisplacementField(bad)


@pytest.mark.parametrize("sigma", [phantom.BOUNDARY_SIGMA, 0.7])
@pytest.mark.parametrize(
    "kind, dims",
    [
        ("lung", (96, 96, 16)),
        ("lung", (48, 48, 12)),
        ("lung", (20, 20, 8)),
        ("lung", (12, 12, 6)),
        # axes of 1 and 2 voxels, shorter than the kernel radius (4 at sigma
        # 1, 3 at sigma 0.7), so the clamped edge feeds every tap along them
        ("random", (5, 2, 1)),
        ("random", (1, 7, 2)),
        ("random", (2, 1, 9)),
    ],
    ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else v,
)
def test_gaussian_blur_has_the_bits_of_scipy_gaussian_filter(kind, dims, sigma):
    if kind == "lung":
        spec = phantom.PhantomSpec(dims=dims)
        data = phantom._ellipsoid_mask(dims, spec.center(), spec.radii()).astype(np.float64)
    else:
        data = np.random.default_rng(7).standard_normal(dims)
    expected = gaussian_filter(data, sigma, mode="nearest")
    assert np.array_equal(gaussian_blur(data, sigma), expected)

import multiprocessing
import os
import sys
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from dwimoco import _kernels, objective, registration
from dwimoco.objective import (
    ALPHA1,
    EmptyRoiError,
    LossBreakdown,
    Workspace,
    loss_and_gradient,
    model_fit_loss,
    per_term_gradients,
    similarity_loss,
    smoothness_loss,
    stack_fields,
    total_loss,
    unstack_fields,
)
from dwimoco.phantom import PhantomSpec, make_phantom
from dwimoco.registration import InnerOptConfig
from dwimoco.signal_model import FLOOR_EPS, ParameterMaps, reconstruct
from dwimoco.volume import (
    BValueSeries,
    DimensionMismatchError,
    DisplacementField,
    RoiMask,
    ScalarVolume,
    trilinear_sample,
    warp_series,
)

DIMS = (10, 9, 7)
BVALUES = (0.0, 100.0, 300.0, 600.0)
# the full method and the registration-only one, which is alpha2 = 0 on the same path
ALPHA2_SETTINGS = (1000.0, 0.0)
# the fused route's working dtypes: objective.WORK_DTYPE, and float64, in
# which the tests pin it to the float64 per-term functions
DTYPES = (np.float32, np.float64)


@pytest.fixture
def float64_route(monkeypatch):
    """The fused route in float64, so it meets the float64 per-term oracles
    at their tolerances."""
    monkeypatch.setattr(objective, "WORK_DTYPE", np.float64)


@pytest.fixture(scope="module")
def setup():
    """The maps' reconstruction (the objective's target) and a smooth moving
    series, with residuals bounded away from L1 ties."""
    maps, roi = make_phantom(PhantomSpec(dims=DIMS))
    fixed = reconstruct(maps, BVALUES)
    fac = 0.9 + 0.03 * np.sin(np.arange(DIMS[0]) / 3.0)[:, None, None] * np.ones(DIMS)
    moving = BValueSeries(BVALUES, tuple(ScalarVolume(v.data * fac) for v in fixed.volumes))
    u = np.zeros((len(BVALUES),) + DIMS + (3,))
    for i in range(len(BVALUES)):
        for c in range(3):
            u[i, ..., c] = 0.3 + 0.2 * np.sin(
                2 * np.pi * (np.arange(DIMS[0])[:, None, None] / DIMS[0] + 0.3 * c + 0.17 * i)
            )
    fields = [DisplacementField(u[i]) for i in range(len(BVALUES))]
    return maps, roi, fixed, moving, fields, u


def _along(axis, index):
    """Index tuple selecting `index` along one axis."""
    return (slice(None),) * axis + (index,)


def constant_series(dims, value, bvalues=(0.0, 200.0)):
    vols = tuple(ScalarVolume(np.full(dims, value)) for _ in bvalues)
    return BValueSeries(bvalues, vols)


class TestSimilarityLoss:
    def test_identical_series_zero(self, setup):
        _, _, fixed, _, _, _ = setup
        assert similarity_loss(fixed, fixed) == 0.0

    def test_constant_difference(self):
        a = constant_series((4, 3, 2), 1.0)
        b = constant_series((4, 3, 2), 0.5)
        assert similarity_loss(a, b) == pytest.approx(0.5, rel=1e-14)

    def test_l1_homogeneity(self, setup):
        _, _, fixed, moving, _, _ = setup
        base = similarity_loss(fixed, moving)
        fixed3 = BValueSeries(fixed.bvalues, tuple(ScalarVolume(3 * v.data) for v in fixed.volumes))
        moving3 = BValueSeries(
            moving.bvalues, tuple(ScalarVolume(3 * v.data) for v in moving.volumes)
        )
        assert similarity_loss(fixed3, moving3) == pytest.approx(3 * base, rel=1e-12)

    def test_dims_must_match(self):
        with pytest.raises(DimensionMismatchError):
            similarity_loss(constant_series((3, 3, 3), 1.0), constant_series((3, 3, 2), 1.0))


class TestSmoothnessLoss:
    def test_constant_field_is_free(self):
        field = DisplacementField(np.full((5, 4, 3, 3), 7.0))
        assert smoothness_loss(field) == 0.0
        assert np.prod(field.dims) * smoothness_loss(field) == 0.0

    def test_unit_shear_raw_sum_counts_voxels(self):
        dims = (6, 5, 4)
        u = np.zeros(dims + (3,))
        u[..., 0] = np.arange(dims[0], dtype=float)[:, None, None]
        field = DisplacementField(u)
        # u_x[i+1] - u_x[i] == 1 for each of the (nx - 1) * ny * nz voxels
        # with a neighbour along x; every other difference is 0
        n_vox = np.prod(dims)
        pairs = (dims[0] - 1) * dims[1] * dims[2]
        assert n_vox * smoothness_loss(field) == pytest.approx(pairs, rel=1e-12)
        assert smoothness_loss(field) == pytest.approx(pairs / n_vox, rel=1e-12)

    def test_quadratic_scaling(self, rng):
        u = rng.normal(0, 1, (5, 4, 3, 3))
        f1 = DisplacementField(u)
        f2 = DisplacementField(2 * u)
        assert smoothness_loss(f2) == pytest.approx(4 * smoothness_loss(f1), rel=1e-12)

    def test_nonconstant_affine_positive(self):
        dims = (4, 4, 3)
        u = np.zeros(dims + (3,))
        u[..., 1] = 0.3 * np.arange(dims[2], dtype=float)[None, None, :]
        assert smoothness_loss(DisplacementField(u)) > 0


    def test_checkerboard_costs_at_least_white_noise_of_its_amplitude(self, rng):
        # +-0.5 alternating from voxel to voxel, against +-0.5 with random
        # signs: the checkerboard is the rougher field, and a central
        # difference (u[i+1] - u[i-1]) / 2 scores it 0 away from the borders
        dims = (20, 20, 8)
        checker = np.zeros(dims + (3,))
        checker[..., 0] = 0.5 * (-1.0) ** np.indices(dims).sum(axis=0)
        noise = np.zeros(dims + (3,))
        noise[..., 0] = 0.5 * rng.choice([-1.0, 1.0], dims)
        fields = [DisplacementField(u) for u in (checker, noise)]
        assert smoothness_loss(fields[0]) >= smoothness_loss(fields[1])
        raw = []
        for f in fields:
            u = stack_fields([f])
            scratch = _kernels.GroupScratch(1, dims, 0, u.dtype)
            raw.append(_kernels.smooth_loss_grad(u, np.zeros_like(u), 1.0, scratch)[0])
        assert raw[0] >= raw[1]


class TestModelFitLoss:
    def test_zero_on_reconstruction(self, setup):
        maps, roi, fixed, _, _, _ = setup
        assert model_fit_loss(fixed, maps, roi) == pytest.approx(0.0, abs=1e-24)

    def test_single_voxel_hand_value(self):
        dims = (3, 3, 3)
        bvals = (0.0, 500.0)
        log_s0 = np.zeros(dims)
        adc = np.zeros(dims)
        maps = ParameterMaps(ScalarVolume(log_s0), ScalarVolume(adc))
        # model predicts log S = 0; choose warped signals with log residuals +-0.1
        mask = np.zeros(dims, dtype=bool)
        mask[1, 1, 1] = True
        v0 = np.ones(dims)
        v1 = np.ones(dims)
        v0[1, 1, 1] = np.exp(-0.1)
        v1[1, 1, 1] = np.exp(0.1)
        warped = BValueSeries(bvals, (ScalarVolume(v0), ScalarVolume(v1)))
        loss = model_fit_loss(warped, maps, RoiMask(mask))
        assert loss == pytest.approx(0.01, rel=1e-12)

    def test_invariant_to_outside_roi(self, setup, rng):
        maps, roi, fixed, _, _, _ = setup
        base = model_fit_loss(fixed, maps, roi)
        vols = []
        for v in fixed.volumes:
            data = v.data.copy()
            data[~roi.data] = rng.random((~roi.data).sum()) + 0.5
            vols.append(ScalarVolume(data))
        perturbed = BValueSeries(fixed.bvalues, tuple(vols))
        assert model_fit_loss(perturbed, maps, roi) == pytest.approx(base, abs=1e-24)

    def test_empty_roi_error(self, setup):
        maps, _, fixed, _, _, _ = setup
        with pytest.raises(EmptyRoiError):
            model_fit_loss(fixed, maps, RoiMask(np.zeros(DIMS, dtype=bool)))


class TestTotalLoss:
    def test_global_minimum_is_zero(self, setup):
        maps, roi, fixed, _, _, _ = setup
        zero = [DisplacementField.zero(DIMS) for _ in BVALUES]
        bd = total_loss(fixed, zero, maps, roi, 1000.0)
        assert bd.similarity == 0.0
        assert bd.smooth == 0.0
        assert bd.model_fit == pytest.approx(0.0, abs=1e-24)
        assert bd.total == pytest.approx(0.0, abs=1e-20)

    def test_zero_weights_reduce_to_similarity(self, monkeypatch, setup):
        maps, roi, _, moving, fields, _ = setup
        monkeypatch.setattr(objective, "ALPHA1", 0.0)
        bd = total_loss(moving, fields, maps, roi, 0.0)
        assert bd.total == bd.similarity

    def test_weighted_sum_identity(self, setup):
        maps, roi, _, moving, fields, _ = setup
        bd = total_loss(moving, fields, maps, roi, 1000.0)
        assert bd.total == bd.similarity + ALPHA1 * bd.smooth + 1000.0 * bd.model_fit

    def test_paper_weight_arithmetic(self):
        # the paper's weights: alpha1 = 0.01, alpha2 = 1000
        bd = LossBreakdown.weighted(0.2, 3.0, 1e-4, 1000.0)
        assert bd.total == pytest.approx(0.33, rel=1e-12)

    @pytest.mark.usefixtures("float64_route")
    def test_fused_path_matches_reference(self, setup):
        maps, roi, _, moving, fields, _ = setup
        for alpha2 in ALPHA2_SETTINGS:
            ref = total_loss(moving, fields, maps, roi, alpha2)
            uc = stack_fields(fields)
            ws = Workspace(moving, maps, roi)
            fused = loss_and_gradient(ws, uc, alpha2, np.empty_like(uc))
            assert fused.similarity == pytest.approx(ref.similarity, rel=1e-12)
            assert fused.smooth == pytest.approx(ref.smooth, rel=1e-12)
            assert fused.model_fit == pytest.approx(ref.model_fit, rel=1e-12)
            assert fused.model_fit > 0.0  # reported unweighted at every alpha2
            if alpha2 == 0.0:
                for bd in (ref, fused):
                    assert bd.total == bd.similarity + ALPHA1 * bd.smooth


def _fd_term(term, moving, maps, roi, u, i, c, idx, h=1e-3):
    up = u.copy()
    up[(i,) + idx + (c,)] += h
    dn = u.copy()
    dn[(i,) + idx + (c,)] -= h
    f_up = [DisplacementField(up[j]) for j in range(u.shape[0])]
    f_dn = [DisplacementField(dn[j]) for j in range(u.shape[0])]
    t_up = total_loss(moving, f_up, maps, roi, 1000.0)
    t_dn = total_loss(moving, f_dn, maps, roi, 1000.0)
    return (getattr(t_up, term) - getattr(t_dn, term)) / (2 * h)


class TestFieldStack:
    def test_stack_is_component_major_and_round_trips(self, monkeypatch, setup):
        *_, fields, u = setup
        for dtype in DTYPES:
            monkeypatch.setattr(objective, "WORK_DTYPE", dtype)
            stacked = stack_fields(fields)
            assert stacked.flags.c_contiguous and stacked.dtype == dtype
            np.testing.assert_array_equal(stacked, np.moveaxis(u, -1, 1).astype(dtype))
            back = unstack_fields(stacked)
            assert all(f.data.dtype == np.float64 for f in back)
            # the next pass stacks the returned fields: the same iterate bits
            assert stack_fields(back).tobytes() == stacked.tobytes()
            if dtype == np.float64:
                for b, f in zip(back, fields):
                    np.testing.assert_array_equal(b.data, f.data)

    def test_loss_and_gradient_needs_c_contiguous_working_dtype(self, monkeypatch, setup):
        # flat-stride differences read memory order, so a strided stack would
        # give wrong smoothness gradients instead of an error; a mixed dtype
        # would cast on every pass
        maps, roi, _, moving, fields, _ = setup
        for dtype, other in zip(DTYPES, DTYPES[::-1]):
            monkeypatch.setattr(objective, "WORK_DTYPE", dtype)
            good = stack_fields(fields)
            strided = np.stack([np.moveaxis(f.data, -1, 0) for f in fields]).astype(dtype)
            assert strided.shape == good.shape and not strided.flags.c_contiguous
            bad = [
                ("fields_arr", strided, np.empty_like(good)),
                ("grad", good, np.empty_like(good, order="F")),
                ("fields_arr", good.astype(other), np.empty_like(good)),
                ("grad", good, np.empty(good.shape, other)),
            ]
            ws = Workspace(moving, maps, roi)
            for name, fields_arr, grad in bad:
                match = f"{name} must be a C-contiguous {np.dtype(dtype)}"
                with pytest.raises(ValueError, match=match):
                    loss_and_gradient(ws, fields_arr, 1000.0, grad)
            loss_and_gradient(ws, good, 1000.0, np.empty_like(good))

    @pytest.mark.parametrize("one_image_groups", [False, True], ids=["one_stack", "per_image"])
    def test_workspace_target_has_the_bits_of_reconstruct(self, monkeypatch, one_image_groups):
        # 20x20x8 at B = 6 fits one group; with GROUP_VOXELS at one image
        # every group is one image.  The stacks hold the float64 values
        # rounded to the working dtype.
        dims = (20, 20, 8)
        bvalues = (0.0, 50.0, 100.0, 300.0, 600.0, 900.0)
        rng = np.random.default_rng(3)
        maps = ParameterMaps(
            ScalarVolume(rng.normal(0.0, 0.5, dims)), ScalarVolume(rng.uniform(0.0, 3e-3, dims))
        )
        moving = BValueSeries(bvalues, tuple(ScalarVolume(rng.random(dims)) for _ in bvalues))
        roi = RoiMask(rng.random(dims) < 0.3)
        if one_image_groups:
            monkeypatch.setattr(_kernels, "GROUP_VOXELS", int(np.prod(dims)))
        for dtype in DTYPES:
            monkeypatch.setattr(objective, "WORK_DTYPE", dtype)
            ws = Workspace(moving, maps, roi)
            assert (ws.group == 1) if one_image_groups else (ws.group >= len(bvalues))
            assert ws.target.tobytes() == reconstruct(maps, bvalues).stack().astype(dtype).tobytes()
            assert ws.moving.tobytes() == moving.stack().astype(dtype).tobytes()

    def test_workspace_rejects_maps_or_roi_on_another_grid(self, setup):
        # the kernels gather the ROI with clamped indices, so a mask of
        # another grid would read wrong voxels instead of raising
        maps, roi, _, moving, _, _ = setup
        other = tuple(n + 1 for n in DIMS)
        other_maps = ParameterMaps(ScalarVolume(np.zeros(other)), ScalarVolume(np.zeros(other)))
        for bad_maps, bad_roi in ((maps, RoiMask(np.ones(other, bool))), (other_maps, roi)):
            with pytest.raises(DimensionMismatchError):
                Workspace(moving, bad_maps, bad_roi)
        with pytest.raises(EmptyRoiError):
            Workspace(moving, maps, RoiMask(np.zeros(DIMS, bool)))


class TestGradients:
    @pytest.mark.usefixtures("float64_route")
    def test_zero_gradient_at_global_minimum(self, setup):
        maps, roi, fixed, _, _, _ = setup
        zero = np.zeros((len(BVALUES),) + DIMS + (3,))
        alpha2 = 1000.0
        grad = np.full((len(BVALUES), 3) + DIMS, np.nan)  # every entry is overwritten
        loss_and_gradient(Workspace(fixed, maps, roi), np.zeros_like(grad), alpha2, grad)
        grad = np.moveaxis(grad, 1, -1)
        terms = per_term_gradients(fixed, [DisplacementField(z) for z in zero], maps, roi)
        np.testing.assert_allclose(terms["similarity"], 0.0, rtol=0, atol=0)
        np.testing.assert_allclose(terms["smooth"], 0.0, rtol=0, atol=0)
        # The model-fit residual log(exp(y)) - y with y = log_s0 - b * adc is
        # float64 rounding, not bitwise 0: allow k = 2 ulp of max(1, |y|) per
        # residual, carried through alpha2 * 2 / (B * n_roi) * |dw/du| / w.
        eps = np.finfo(np.float64).eps
        bound = np.zeros_like(grad)
        for i, b in enumerate(BVALUES):
            y = maps.log_s0.data - b * maps.adc.data
            w_i = fixed.volumes[i].data
            _, dw = _kernels.warp3d_with_point_grad(w_i, zero[i])
            res_bound = np.where(roi.data, 2 * eps * np.maximum(1.0, np.abs(y)), 0.0)
            bound[i] = (
                alpha2 * 2 / (len(BVALUES) * roi.count)
                * (res_bound / w_i)[..., None] * np.abs(dw)
            )
        assert bound.max() <= 1e-14
        assert np.all(np.abs(grad) <= bound), np.abs(grad).max()

    @pytest.mark.usefixtures("float64_route")
    @pytest.mark.parametrize("term", ["similarity", "smooth", "model_fit"])
    def test_terms_match_finite_differences(self, setup, rng, term):
        maps, roi, _, moving, fields, u = setup
        grads = per_term_gradients(moving, fields, maps, roi)[term]
        n_b = len(BVALUES)
        worst = 0.0
        checked = 0
        while checked < 60:
            i = int(rng.integers(0, n_b))
            c = int(rng.integers(0, 3))
            if term == "model_fit":
                cand = np.argwhere(roi.data)
                p = tuple(int(v) for v in cand[rng.integers(0, len(cand))])
            else:
                p = tuple(int(rng.integers(1, d - 1)) for d in DIMS)
            a = grads[(i,) + p + (c,)]
            f = _fd_term(term, moving, maps, roi, u, i, c, p)
            rel = abs(a - f) / max(abs(a), abs(f), 1e-12)
            worst = max(worst, rel)
            checked += 1
        assert worst < 1e-4, f"{term}: worst rel err {worst}"

    @pytest.mark.usefixtures("float64_route")
    def test_total_gradient_is_weighted_sum_of_terms(self, setup):
        maps, roi, _, moving, fields, _ = setup
        terms = per_term_gradients(moving, fields, maps, roi)
        for alpha2 in ALPHA2_SETTINGS:
            uc = stack_fields(fields)
            grad = np.empty_like(uc)
            loss_and_gradient(Workspace(moving, maps, roi), uc, alpha2, grad)
            grad = np.moveaxis(grad, 1, -1)
            combo = (
                terms["similarity"] + ALPHA1 * terms["smooth"] + alpha2 * terms["model_fit"]
            )
            np.testing.assert_allclose(grad, combo, rtol=1e-9, atol=1e-15)

    def test_float32_route_matches_float64_route(self, monkeypatch):
        # 20x20x8 at B = 6, cohort_sim's grid, with generic fields: no sample
        # sits within float32 rounding of a grid line or an L1 tie, where a
        # derivative jumps.  float32 rounds each value to 2**-24 (6e-8) of
        # itself and every sum accumulates in float64, so the terms are held
        # to 1e-6 (16 float32 ulps) and each gradient entry to 1e-5 of the
        # largest.
        dims = (20, 20, 8)
        bvalues = (0.0, 50.0, 100.0, 300.0, 600.0, 900.0)
        rng = np.random.default_rng(5)
        maps, roi = make_phantom(PhantomSpec(dims=dims))
        factor = 0.9 + 0.05 * np.sin(np.arange(dims[0]) / 2.0)[:, None, None]
        moving = BValueSeries(
            bvalues,
            tuple(
                ScalarVolume(v.data * factor * rng.uniform(0.97, 1.03, dims))
                for v in reconstruct(maps, bvalues).volumes
            ),
        )
        grid = np.stack(np.indices(dims), axis=-1) / np.array(dims)
        fields = [
            DisplacementField(
                1.5 * np.sin(2 * np.pi * (grid + 0.1 * i)) + rng.uniform(-0.3, 0.3, dims + (3,))
            )
            for i in range(len(bvalues))
        ]
        for alpha2 in ALPHA2_SETTINGS:
            out = {}
            for dtype in DTYPES:
                monkeypatch.setattr(objective, "WORK_DTYPE", dtype)
                u = stack_fields(fields)
                grad = np.empty_like(u)
                bd = loss_and_gradient(Workspace(moving, maps, roi), u, alpha2, grad)
                out[dtype] = bd, grad.astype(np.float64)
            (bd32, g32), (bd64, g64) = out[np.float32], out[np.float64]
            for term in ("similarity", "smooth", "model_fit", "total"):
                assert getattr(bd32, term) == pytest.approx(getattr(bd64, term), rel=1e-6)
            np.testing.assert_allclose(g32, g64, rtol=0, atol=1e-5 * np.abs(g64).max())

    def test_smooth_gradient_vanishes_for_affine_interior(self):
        # discrete Laplacian of a linear field is zero away from borders
        dims = (7, 6, 5)
        u = np.zeros(dims + (3,))
        u[..., 0] = np.arange(dims[0], dtype=float)[:, None, None]
        moving = constant_series(dims, 1.0)  # the zero maps' reconstruction
        fields = [DisplacementField(u) for _ in moving.bvalues]
        g = per_term_gradients(
            moving,
            fields,
            ParameterMaps(ScalarVolume(np.zeros(dims)), ScalarVolume(np.zeros(dims))),
            RoiMask(np.ones(dims, dtype=bool)),
        )["smooth"]
        np.testing.assert_allclose(g[0, 1:-1], 0.0, rtol=0, atol=1e-12)
        assert np.abs(g[0]).max() > 0  # the first and last x planes carry the ends


class TestAdjointProperty:
    # (shape, axes): voxel-major (nx, ny, nz, 3) fields along axes 0-2 and
    # component-major (3, nx, ny, nz) ones along axes 1-3.  Axis lengths 2,
    # 3, 4 and 6 put the last plane of a row next to the first plane of the
    # next row at every stride; (3, 24, 24, 16) has component planes of
    # 9,216 elements, more than one 8,192-element ufunc buffer.
    CASES = [
        *[(shape + (3,), (0, 1, 2)) for shape in [(6, 5, 4), (2, 3, 4), (4, 2, 3), (3, 4, 2)]],
        *[((3,) + shape, (1, 2, 3)) for shape in [(6, 5, 4), (2, 3, 4), (4, 2, 3), (3, 4, 2)]],
        ((3, 24, 24, 16), (1, 2, 3)),
    ]

    @staticmethod
    def adjoint_by_rows(w, axis):
        """field_diff_adjoint written row by row: out[0] = -w[0] and
        out[i] = w[i-1] - w[i] from 1 on."""
        w = np.moveaxis(w, axis, 0)
        out = np.empty_like(w)
        out[0] = -w[0]
        for i in range(1, len(w)):
            out[i] = w[i - 1] - w[i]
        return np.moveaxis(out, 0, axis)

    def test_axis_diff_adjoint_dot_product(self, rng):
        for shape, axes in self.CASES:
            for axis in axes:
                a = rng.normal(0, 1, shape)
                w = rng.normal(0, 1, shape)
                w[_along(axis, -1)] = 0.0  # the range of field_diff
                diff = _kernels.field_diff(a, axis, np.full_like(a, np.nan))
                zero_plane = np.zeros_like(a[_along(axis, [0])])
                padded = np.concatenate([np.diff(a, axis=axis), zero_plane], axis)
                assert diff.tobytes() == padded.tobytes()
                adj = _kernels.field_diff_adjoint(w, axis, np.full_like(w, np.nan))
                assert adj.tobytes() == self.adjoint_by_rows(w, axis).tobytes()
                lhs = float((diff * w).sum())
                rhs = float((a * adj).sum())
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_diff_refuses_arrays_out_of_memory_order(self):
        u = np.zeros((3, 4, 5, 6))
        with pytest.raises(ValueError):
            _kernels.field_diff(u, 1, np.empty_like(u, order="F"))
        with pytest.raises(ValueError):
            _kernels.field_diff_adjoint(u, 2, np.empty_like(u)[:, ::-1])

    def test_field_diff_needs_two_voxels(self, rng):
        # a difference needs two voxels along its axis: with one, there is
        # none, and field_diff writes 0
        for shape, axis in [((3, 4, 1, 5), 2), ((3, 4, 5, 1), 3), ((3, 1, 4, 5), 1)]:
            u = rng.normal(0, 1, shape)
            diff = _kernels.field_diff(u, axis, np.full_like(u, np.nan))
            assert diff.tobytes() == np.zeros_like(u).tobytes()


class TestKernelOracles:
    """The vectorized kernels against independent scalar or per-term code."""

    def test_warp_matches_trilinear_sample(self, rng):
        # axes of length 1 and 2 have a single cell; (6, 5, 7) has interior cells too
        for shape in [(6, 5, 7), (4, 3, 1), (2, 2, 2)]:
            vol = rng.random(shape)
            disp = rng.uniform(-3, 3, shape + (3,))  # reaches past every border
            sv = ScalarVolume(vol)
            for out in (_kernels.warp3d(vol, disp), _kernels.warp3d_with_point_grad(vol, disp)[0]):
                for p in np.ndindex(shape):
                    want = trilinear_sample(sv, np.add(p, disp[p]))
                    assert out[p] == pytest.approx(want, rel=1e-13, abs=1e-15)

    def test_cell_base_index_is_exact_above_2_24_voxels(self):
        # 4100 x 4100 x 3 holds 50.4 M voxels, and float32 whole numbers are
        # exact only up to 2**24 (16.8 M): the flat index is summed in float64,
        # exact up to 2**53, and cast to intp once.
        # A handful of samples on the grid, so no full-size array is made.
        shape = (4100, 4100, 3)
        points = np.array(
            [
                [4098.25, 4096.5, 1.75],  # interior, odd flat index
                [4097.0, 4095.0, 0.5],
                [4099.0, 4098.75, 2.0],  # on the far faces: cell n - 2, fraction 1
                [4105.0, -3.0, 7.0],  # clamped on every axis
                [1.5, 2.25, 0.0],
            ]
        )
        cells = np.array(
            [[4098, 4096, 1], [4097, 4095, 0], [4098, 4098, 1], [4098, 0, 1], [1, 2, 0]]
        )
        fracs = np.array(
            [[0.25, 0.5, 0.75], [0.0, 0.0, 0.5], [1.0, 0.75, 1.0], [1.0, 0.0, 1.0], [0.5, 0.25, 0]]
        )
        want = np.ravel_multi_index(tuple(cells.T), shape)
        assert any(int(np.float32(i)) != i for i in want)  # a float32 index would be off
        for dtype in DTYPES:
            coords = np.array(points.T, dtype=dtype)
            index = np.full(len(points), -1, dtype=np.intp)
            got = _kernels._cell_base(
                coords, shape, np.empty_like(coords), np.empty((2, len(points))), index
            )
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(coords.T, fracs)

    def test_plain_warp_equals_point_grad_warp(self, rng):
        for shape in [(6, 5, 7), (4, 3, 1), (2, 2, 2), (1, 1, 1)]:
            vol = rng.random(shape)
            disp = rng.uniform(-3, 3, shape + (3,))
            np.testing.assert_array_equal(
                _kernels.warp3d(vol, disp), _kernels.warp3d_with_point_grad(vol, disp)[0]
            )

    def test_point_grad_matches_central_differences(self, rng):
        dims = (6, 5, 7)
        vol = rng.random(dims)
        # off-grid interior points: a random cell plus a fraction in [0.1, 0.9]
        cells = np.stack([rng.integers(0, n - 1, dims) for n in dims], axis=-1)
        points = cells + rng.uniform(0.1, 0.9, dims + (3,))
        disp = points - np.stack(np.indices(dims), axis=-1)
        _, dout = _kernels.warp3d_with_point_grad(vol, disp)
        sv = ScalarVolume(vol)
        h = 1e-4
        for p in np.ndindex(dims):
            for a in range(3):
                step = np.zeros(3)
                step[a] = h
                fd = (
                    trilinear_sample(sv, points[p] + step) - trilinear_sample(sv, points[p] - step)
                ) / (2 * h)
                assert dout[p + (a,)] == pytest.approx(fd, rel=1e-8, abs=1e-10)

    @pytest.mark.usefixtures("float64_route")
    def test_match_terms_sums_match_term_losses(self, setup):
        maps, roi, fixed, moving, fields, _ = setup
        uc = stack_fields(fields)
        roi_idx = np.flatnonzero(roi.data)
        n_b = len(BVALUES)
        n_vox = int(np.prod(DIMS))
        sim_total = 0.0
        mf_total = 0.0
        for i, b in enumerate(BVALUES):
            pred = (maps.log_s0.data - b * maps.adc.data).reshape(-1)[roi_idx]
            s, m = _kernels.match_terms(
                moving.volumes[i].data[None], uc[i : i + 1], fixed.volumes[i].data[None], pred,
                roi_idx, 1e-6, 0.3, 0.7, np.zeros((1, 3) + DIMS),
                _kernels.GroupScratch(1, DIMS, roi.count, np.float64),
            )
            sim_total += s[0]
            mf_total += m[0]
        warped = warp_series(moving, [f.data for f in fields])
        assert sim_total / (n_b * n_vox) == pytest.approx(
            similarity_loss(fixed, warped), rel=1e-12
        )
        assert mf_total / (n_b * roi.count) == pytest.approx(
            model_fit_loss(warped, maps, roi), rel=1e-12
        )

    @staticmethod
    def masked_match_terms(vol, disp, fixed, pred_log, roi, floor_eps, sim_c, mf_c, grad_out):
        """match_terms as whole-volume arrays masked with `where=`: disp and
        grad_out (nx, ny, nz, 3), pred_log and the boolean roi full-size."""
        w, dout = _kernels.warp3d_with_point_grad(vol, disp)
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
        for a in range(3):
            grad_out[..., a] += dout[..., a] * coeff
        return sim_sum, mf_sum

    def test_roi_only_match_terms_equal_masked_whole_volume(self, rng):
        dims = (9, 8, 7)
        vol = rng.uniform(0.2, 1.0, dims)
        vol[2:5, 2:5, 2:5] = 0.0  # (3, 3, 3) samples only zeros: below FLOOR_EPS
        disp = rng.uniform(-0.4, 0.4, dims + (3,))
        w = _kernels.warp3d(vol, disp)
        assert w[3, 3, 3] == 0.0
        fixed = w * rng.uniform(0.8, 1.2, dims)
        fixed[::2, 1::3] = w[::2, 1::3]  # exact L1 ties: sign 0
        fixed[3, 3, 3] = 0.5  # sign -1 at the floored voxel: -0.0 at sim_c = 0
        single = np.zeros(dims, dtype=bool)
        single[3, 3, 3] = True
        rois = [("single_floored", single), ("all", np.ones(dims, dtype=bool))]
        for k in range(6):
            # a sparse ROI: summing only its squares would round differently
            sparse = rng.random(dims) < 0.3
            sparse[3, 3, 3] = True
            rois.append((f"sparse{k}", sparse))
        disp_c = np.ascontiguousarray(np.moveaxis(disp, -1, 0))
        for name, roi in rois:
            pred = rng.normal(-0.5, 0.3, dims)
            idx = np.flatnonzero(roi)
            for sim_c, mf_c in [(0.3, 0.7), (0.0, 0.7), (0.3, 0.0)]:
                # -0.0 start: an added zero of the wrong sign would show
                want_grad = np.full(dims + (3,), -0.0)
                want = self.masked_match_terms(
                    vol, disp, fixed, pred, roi, FLOOR_EPS, sim_c, mf_c, want_grad
                )
                grad = np.full((1, 3) + dims, -0.0)
                got = _kernels.match_terms(
                    vol[None], disp_c[None], fixed[None], pred.reshape(-1)[idx], idx,
                    FLOOR_EPS, sim_c, mf_c, grad,
                    _kernels.GroupScratch(1, dims, idx.size, np.float64),
                )
                assert (got[0][0], got[1][0]) == want, (name, sim_c, mf_c)
                got_grad = np.moveaxis(grad[0], 0, -1)
                np.testing.assert_array_equal(got_grad, want_grad)
                np.testing.assert_array_equal(np.signbit(got_grad), np.signbit(want_grad))

    @pytest.mark.parametrize(
        "dims",
        [(2, 2, 2), (3, 5, 2), (8, 7, 6), (5, 4, 1)],
        ids=["2x2x2", "3x5x2", "8x7x6", "5x4x1"],
    )
    def test_smooth_loss_grad_matches_smoothness_loss(self, rng, dims):
        u = rng.normal(0, 1, (1, 3) + dims)  # one component-major field
        grad = np.zeros_like(u)
        weight = 0.37
        scratch = _kernels.GroupScratch(1, dims, 0, u.dtype)
        (loss,) = _kernels.smooth_loss_grad(u, grad, weight, scratch)
        u, grad = u[0], grad[0]
        n_vox = np.prod(dims)

        def field(c):
            return DisplacementField(np.moveaxis(c, 0, -1))

        assert loss == pytest.approx(n_vox * smoothness_loss(field(u)), rel=1e-12)
        # the loss is quadratic in u, so central differences are exact up to rounding
        h = 1e-3
        for idx in np.ndindex(u.shape):
            up = u.copy()
            up[idx] += h
            dn = u.copy()
            dn[idx] -= h
            fd = (
                n_vox * smoothness_loss(field(up)) - n_vox * smoothness_loss(field(dn))
            ) / (2 * h)
            assert grad[idx] == pytest.approx(weight * fd, rel=1e-7, abs=1e-9)

    def test_float32_kernel_sums_accumulate_in_float64(self, rng):
        # 3 images of 20x20x8: each sum adds 3,200 to 9,600 float32 values,
        # so a float32 accumulator would be off by about 1e-7 of the sum
        dims, images = (20, 20, 8), 3
        f32 = np.float32
        vols = rng.uniform(0.1, 1.0, (images,) + dims).astype(f32)
        target = rng.uniform(0.1, 1.0, (images,) + dims).astype(f32)
        u = rng.uniform(-1.5, 1.5, (images, 3) + dims).astype(f32)
        roi = np.flatnonzero(rng.random((images,) + dims) < 0.3)
        pred = rng.normal(-0.5, 0.3, roi.size).astype(f32)
        scratch = _kernels.GroupScratch(images, dims, roi.size, f32)
        grad = np.zeros_like(u)
        sim, mf = _kernels.match_terms(
            vols, u, target, pred, roi, FLOOR_EPS, 0.3, 0.7, grad, scratch
        )
        smooth = _kernels.smooth_loss_grad(u, grad, 1.0, scratch)
        assert grad.dtype == f32 and sim.dtype == mf.dtype == np.float64
        for g in range(images):
            w, _ = _kernels.warp3d_with_point_grad(vols[g], np.moveaxis(u[g], 0, -1))
            assert w.dtype == f32
            want_sim = np.abs(w - target[g]).astype(np.float64).sum()
            mask = roi[(roi >= g * w.size) & (roi < (g + 1) * w.size)] - g * w.size
            res = np.log(np.maximum(w.reshape(-1)[mask], f32(FLOOR_EPS)))
            res -= pred[np.isin(roi, mask + g * w.size)]
            want_mf = np.square(res).astype(np.float64).sum()
            want_smooth = sum(
                np.square(np.diff(u[g], axis=a)).astype(np.float64).sum() for a in (1, 2, 3)
            )
            assert sim[g] == pytest.approx(want_sim, rel=1e-12)
            assert mf[g] == pytest.approx(want_mf, rel=1e-12)
            assert smooth[g] == pytest.approx(want_smooth, rel=1e-12)

    def test_adam_update_matches_textbook_adam(self, rng):
        # more than two blocks, the last one partial
        n = 2 * _kernels.ADAM_BLOCK + 5
        x = rng.normal(0, 1, n)
        m = np.zeros(n)
        v = np.zeros(n)
        lr, beta1, beta2, eps = 0.1, 0.9, 0.999, 1e-8

        def close(got, a, b):
            # each update is a sum of two terms; rounding is relative to them
            assert np.all(np.abs(got - (a + b)) <= 1e-14 * (np.abs(a) + np.abs(b)))

        scratch = np.full(2 * _kernels.ADAM_BLOCK, np.nan)
        for t in range(1, 4):
            g = rng.normal(0, 1, n)
            x0, m0, v0 = x.copy(), m.copy(), v.copy()
            _kernels.adam_update(
                x, g, m, v, lr, beta1, beta2, eps, 1.0 - beta1**t, 1.0 - beta2**t, scratch
            )
            close(m, beta1 * m0, (1 - beta1) * g)
            close(v, beta2 * v0, (1 - beta2) * g**2)
            m_hat = (beta1 * m0 + (1 - beta1) * g) / (1 - beta1**t)
            v_hat = (beta2 * v0 + (1 - beta2) * g**2) / (1 - beta2**t)
            close(x, x0, -lr * m_hat / (np.sqrt(v_hat) + eps))


class TestImageGroups:
    """A group of several b-value images gives the bits of one image per group.

    GROUP_VOXELS is set to k images of the grid, so B = 6 splits as 6,
    4 + 2, 3 + 3 and 1 x 6 at budget 1; one image per group also runs the
    smoothness one component plane at a time.  The size floor of
    `fan_out_ranges` is lowered so budgets 2 and 3 split the images between
    threads, whose ranges are then cut into groups.  Each test runs in
    both working dtypes.
    """

    DIMS = (7, 6, 5)
    BVALUES = (0.0, 50.0, 100.0, 300.0, 600.0, 900.0)
    SPLITS = {6: [6], 4: [4, 2], 3: [3, 3], 1: [1] * 6}

    @pytest.fixture(scope="class")
    def problem(self):
        rng = np.random.default_rng(7)
        dims = self.DIMS
        maps = ParameterMaps(
            ScalarVolume(rng.normal(0.0, 0.1, dims)), ScalarVolume(rng.uniform(0.0, 2e-3, dims))
        )
        roi = RoiMask(rng.random(dims) < 0.4)
        target = reconstruct(maps, self.BVALUES)
        moving = BValueSeries(
            self.BVALUES,
            tuple(ScalarVolume(v.data * rng.uniform(0.8, 1.2, dims)) for v in target.volumes),
        )
        u = rng.normal(0.0, 0.8, (len(self.BVALUES), 3) + dims)
        u[1, 0, :2] = -4.0  # samples clamped at the grid's edge
        return moving, maps, roi, u

    @pytest.fixture
    def grouped(self, monkeypatch):
        """run(images, budget, fn, *args): fn's result with `images` images
        per group at that thread budget, and the group sizes in call order."""
        monkeypatch.setattr(_kernels, "FAN_OUT_MIN_ELEMENTS", 1)
        sizes = []
        match_terms = objective._match_terms

        def recording(vols, *args):
            sizes.append(len(vols))
            return match_terms(vols, *args)

        monkeypatch.setattr(objective, "_match_terms", recording)

        def run(images, budget, fn, *args):
            monkeypatch.setattr(_kernels, "GROUP_VOXELS", images * int(np.prod(self.DIMS)))
            monkeypatch.setattr(_kernels, "_budget", budget)
            sizes.clear()
            return fn(*args), list(sizes)

        return run

    @pytest.mark.parametrize("alpha2", ALPHA2_SETTINGS)
    def test_loss_and_gradient_bits_match_one_image_groups(
        self, monkeypatch, problem, grouped, alpha2
    ):
        moving, maps, roi, u64 = problem
        for dtype in DTYPES:
            monkeypatch.setattr(objective, "WORK_DTYPE", dtype)
            u = u64.astype(dtype)

            def evaluate():
                grad = np.full_like(u, np.nan)  # an entry left unwritten stays NaN
                bd = loss_and_gradient(Workspace(moving, maps, roi), u, alpha2, grad)
                return bd, grad

            (want_bd, want_grad), _ = grouped(1, 1, evaluate)
            assert np.isfinite(want_grad).all()
            for images, split in self.SPLITS.items():
                for budget in (1, 2, 3):
                    (bd, grad), sizes = grouped(images, budget, evaluate)
                    if budget == 1:
                        assert sizes == split
                    assert bd == want_bd, (dtype, images, budget)
                    np.testing.assert_array_equal(grad, want_grad)
                    np.testing.assert_array_equal(np.signbit(grad), np.signbit(want_grad))

    def test_per_term_gradients_bits_match_one_image_groups(self, monkeypatch, problem, grouped):
        moving, maps, roi, u = problem
        args = (per_term_gradients, moving, unstack_fields(u), maps, roi)
        for dtype in DTYPES:
            monkeypatch.setattr(objective, "WORK_DTYPE", dtype)
            want, _ = grouped(1, 1, *args)
            for images, split in self.SPLITS.items():
                for budget in (1, 2, 3):
                    got, sizes = grouped(images, budget, *args)
                    if budget == 1:
                        assert sizes == split * 3  # one pass per term
                    for term, grad in want.items():
                        assert grad.dtype == dtype
                        np.testing.assert_array_equal(got[term], grad)
                        np.testing.assert_array_equal(np.signbit(got[term]), np.signbit(grad))


class TestSlabs:
    """An image cut into slabs of x-planes gives the bits of one image per call.

    GROUP_VOXELS is set below a plane (17: one-plane slabs, each plane
    larger than the bound), to one plane, to two planes (slabs of 1, 2, 2,
    2, 2 planes), to three (3 + 3 + 3), to one image and to two images, at
    thread budgets 1 and 2, and SUM_BLOCK at numpy's buffer and at 64, so a
    sum's blocks both straddle the slabs and fill them.  The ROI leaves
    planes 0-2 empty, so the first three-plane slab has no ROI voxel, and
    covers the planes on both sides of every later slab boundary.  The
    fields send samples of the image's first and last x-planes outside the
    grid along x, samples of the planes at the slab boundaries into other
    slabs, and samples on those planes outside the grid along y.  A
    one-plane slab's scratch rows hold fewer elements than the Adam step
    takes over one image.
    """

    DIMS = (9, 6, 5)
    BVALUES = (0.0, 100.0, 400.0, 900.0)
    # GROUP_VOXELS: (images per call, planes per slab in call order)
    SETTINGS = {
        17: (1, [1] * 9),
        30: (1, [1] * 9),
        60: (1, [1, 2, 2, 2, 2]),
        90: (1, [3, 3, 3]),
        270: (1, [9]),
        540: (2, [9]),
    }

    @pytest.fixture(scope="class")
    def problem(self):
        rng = np.random.default_rng(11)
        dims = self.DIMS
        maps = ParameterMaps(
            ScalarVolume(rng.normal(0.0, 0.1, dims)), ScalarVolume(rng.uniform(0.0, 2e-3, dims))
        )
        mask = rng.random(dims) < 0.5
        mask[:3] = False
        mask[3, 0, 0] = mask[5, -1, -1] = mask[6, 0, 0] = True
        target = reconstruct(maps, self.BVALUES)
        moving = BValueSeries(
            self.BVALUES,
            tuple(ScalarVolume(v.data * rng.uniform(0.8, 1.2, dims)) for v in target.volumes),
        )
        u = rng.normal(0.0, 0.8, (len(self.BVALUES), 3) + dims)
        u[0, 0, 0] = -3.0  # the image's first plane samples below x = 0
        u[1, 0, -1] = 3.0  # its last plane above x = nx - 1
        u[2, 0, [2, 3, 5, 6]] = [[[2.5]], [[-2.5]], [[2.5]], [[-2.5]]]  # across the slabs
        u[3, 1, [2, 3, 5, 6], 0] = -2.0  # the boundary planes below y = 0
        return moving, maps, RoiMask(mask), u

    @pytest.fixture
    def slabbed(self, monkeypatch):
        """run(group_voxels, budget, sum_block, fn, *args): fn's result at
        those settings, and (images, planes) of each match_terms call."""
        monkeypatch.setattr(_kernels, "FAN_OUT_MIN_ELEMENTS", 1)
        calls = []
        match_terms = objective._match_terms

        def recording(vols, disp, *args):
            calls.append((len(vols), disp.shape[2]))
            return match_terms(vols, disp, *args)

        monkeypatch.setattr(objective, "_match_terms", recording)

        def run(group_voxels, budget, sum_block, fn, *args):
            monkeypatch.setattr(_kernels, "GROUP_VOXELS", group_voxels)
            monkeypatch.setattr(_kernels, "SUM_BLOCK", sum_block)
            monkeypatch.setattr(_kernels, "_budget", budget)
            calls.clear()
            return fn(*args), list(calls)

        return run

    def each_setting(self, slabbed, fn, *args, serial_calls=1):
        """(want, [(label, got), ...]): fn at one image per call, budget 1,
        against every setting, budget and sum block; at budget 1 each
        setting's calls are checked against SETTINGS, serial_calls times."""
        n_b = len(self.BVALUES)
        for sum_block in (_kernels.SUM_BLOCK, 64):
            want, _ = slabbed(270, 1, sum_block, fn, *args)
            got = []
            for voxels, (images, planes) in self.SETTINGS.items():
                for budget in (1, 2):
                    result, calls = slabbed(voxels, budget, sum_block, fn, *args)
                    if budget == 1:
                        per_pass = [(images, p) for p in planes] * (n_b // images)
                        assert calls == per_pass * serial_calls
                    got.append(((voxels, budget, sum_block), result))
            yield want, got

    @pytest.mark.parametrize("alpha2", ALPHA2_SETTINGS)
    def test_loss_and_gradient_bits_match_one_image_calls(
        self, monkeypatch, problem, slabbed, alpha2
    ):
        moving, maps, roi, u64 = problem
        planes = np.flatnonzero(roi.data) // (self.DIMS[1] * self.DIMS[2])
        assert set((planes // 3).tolist()) == {1, 2}  # none in the first three-plane slab
        for dtype in DTYPES:
            monkeypatch.setattr(objective, "WORK_DTYPE", dtype)
            u = u64.astype(dtype)

            def evaluate():
                grad = np.full_like(u, np.nan)  # an entry left unwritten stays NaN
                return loss_and_gradient(Workspace(moving, maps, roi), u, alpha2, grad), grad

            for (want_bd, want_grad), got in self.each_setting(slabbed, evaluate):
                assert np.isfinite(want_grad).all()
                for label, (bd, grad) in got:
                    assert bd == want_bd, (dtype, label)
                    np.testing.assert_array_equal(grad, want_grad)
                    np.testing.assert_array_equal(np.signbit(grad), np.signbit(want_grad))

    def test_per_term_gradients_bits_match_one_image_calls(self, monkeypatch, problem, slabbed):
        moving, maps, roi, u = problem
        args = (per_term_gradients, moving, unstack_fields(u), maps, roi)
        for dtype in DTYPES:
            monkeypatch.setattr(objective, "WORK_DTYPE", dtype)
            for want, got in self.each_setting(slabbed, *args, serial_calls=3):
                for label, terms in got:
                    for term, grad in want.items():
                        np.testing.assert_array_equal(terms[term], grad, err_msg=str(label))
                        np.testing.assert_array_equal(np.signbit(terms[term]), np.signbit(grad))

    def test_warp3d_bits_match_one_image_calls(self, problem, slabbed):
        moving, _maps, _roi, u = problem
        for b in range(len(self.BVALUES)):
            vol, disp = moving.volumes[b].data, np.moveaxis(u[b], 0, -1)
            for want, got in self.each_setting(slabbed, _kernels.warp3d, vol, disp, serial_calls=0):
                for label, w in got:
                    assert w.tobytes() == want.tobytes(), (b, label)

    def test_optimize_fields_bits_match_one_image_calls(self, problem, slabbed):
        # the Adam step, taken on the whole image before its first slab,
        # and the fold of each slab's gradient, component by component
        moving, maps, roi, u = problem
        init = u.astype(objective.WORK_DTYPE) * 0.25
        cfg = InnerOptConfig(max_inner_steps=4, plateau_window=0)

        def optimize():
            x = init.copy()
            stack, trace = registration.optimize_fields(moving, x, maps, roi, 1000.0, cfg, 1.0)
            return stack.tobytes(), trace

        for want, got in self.each_setting(slabbed, optimize, serial_calls=5):
            assert want[0] != init.tobytes()
            for label, result in got:
                assert result == want, label

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_row_sums_keep_their_bits_wherever_a_row_is_cut(self, monkeypatch, rng, dtype):
        # the rule: sequential float64 sum of the pairwise sums of
        # SUM_BLOCK-element blocks; pieces of any length give its bits
        monkeypatch.setattr(_kernels, "SUM_BLOCK", 64)
        rows = (rng.random((3, 1000)) * 10.0 ** rng.integers(-6, 6, (3, 1000))).astype(dtype)
        want = [0.0] * 3
        for lo in range(0, 1000, 64):
            block = rows[:, lo : lo + 64].sum(axis=1, dtype=np.float64)
            want = [w + float(s) for w, s in zip(want, block)]
        for cuts in ([], [1, 2, 3, 64, 65, 127, 128, 500], sorted(rng.choice(999, 40) + 1)):
            sums = _kernels.RowSums(5, dtype, pieces=True)
            edges = [0, *sorted(set(cuts)), 1000]
            for lo, hi in zip(edges, edges[1:]):
                sums.add(2, rows[:, lo:hi], lo, hi == 1000)
            assert sums.totals[2:] == want, cuts

    @pytest.mark.parametrize("n", [8191, 8192, 8193, 49152, 51200, 147457])
    def test_row_sums_of_float32_rows_have_the_bits_of_numpy_sum(self, rng, n):
        # a whole row, and one cut where the slabs of a grid of n voxels cut it
        rows = (rng.random((2, n)) * 10.0 ** rng.integers(-6, 6, (2, n))).astype(np.float32)
        want = rows.sum(axis=1, dtype=np.float64).tolist()
        sums = _kernels.RowSums(2, np.float32, pieces=True)
        sums.add(0, rows, 0, True)
        assert sums.totals == want
        cut = n // 3
        sums.add(0, rows[:, :cut], 0, False)
        sums.add(0, rows[:, cut:], cut, True)
        assert sums.totals == want

    def test_slabs_are_near_equal_whole_planes_within_group_voxels(self):
        assert _kernels.slabs((96, 96, 16)) == [(0, 32), (32, 64), (64, 96)]
        assert _kernels.slabs((80, 80, 16)) == [(0, 40), (40, 80)]
        assert _kernels.slabs((64, 64, 16)) == [(0, 64)]
        assert _kernels.slabs((3, 300, 300)) == [(0, 1), (1, 2), (2, 3)]  # a plane above the bound
        for dims in [(128, 128, 40), (97, 33, 21), (7, 6, 5), (1, 1000, 1000)]:
            slabs = _kernels.slabs(dims)
            plane = dims[1] * dims[2]
            assert slabs[0][0] == 0 and slabs[-1][1] == dims[0]
            assert all(a[1] == b[0] for a, b in zip(slabs, slabs[1:]))
            sizes = [x1 - x0 for x0, x1 in slabs]
            assert max(sizes) - min(sizes) <= 1 and min(sizes) >= 1
            assert max(sizes) == 1 or max(sizes) * plane <= _kernels.GROUP_VOXELS
            assert _kernels.slab_voxels(dims) == max(sizes) * plane


def _no_scratch(lo, hi):
    """A `fan_out_ranges` scratch factory for tasks that need none."""
    return None


def _ranges_in_forked_worker():
    """0..5 in ranges at budget 2, and whether the pool is this process's."""
    ranges = _kernels.fan_out_ranges(lambda lo, hi, _s: list(range(lo, hi)), 6, 6, _no_scratch)
    return ranges, _kernels._pool[0] == os.getpid()


class TestThreadBudget:
    """Budget 1 is the serial loop and the oracle: every budget gives its bits.

    The test arrays are small, so the size floor of `fan_out_ranges` is
    lowered to let them take the threaded path.  The bit tests run in both
    working dtypes.
    """

    @pytest.fixture
    def at_budget(self, monkeypatch):
        monkeypatch.setattr(_kernels, "FAN_OUT_MIN_ELEMENTS", 1)

        def run(budget, fn, *args):
            monkeypatch.setattr(_kernels, "_budget", budget)
            return fn(*args)

        return run

    def test_fan_out_ranges_split_evenly_in_order(self, at_budget):
        def ranges(budget, n, elements):
            def task(lo, hi, _s):
                return lo, hi

            return at_budget(budget, _kernels.fan_out_ranges, task, n, elements, _no_scratch)

        assert ranges(3, 10, 10) == [(0, 3), (3, 6), (6, 10)]
        assert ranges(3, 2, 10) == [(0, 1), (1, 2)]  # no empty range
        assert ranges(1, 10, 10) == [(0, 10)]
        assert ranges(3, 10, 2) == [(0, 5), (5, 10)]  # FAN_OUT_MIN_ELEMENTS (1) per range
        assert ranges(2, 0, 0) == [(0, 0)]

    def test_fan_out_ranges_raises_a_helper_range_error(self, at_budget):
        def fail_in_last_range(lo, hi, _s):
            if hi == 6:
                raise KeyError(lo)
            return lo

        with pytest.raises(KeyError):
            at_budget(3, _kernels.fan_out_ranges, fail_in_last_range, 6, 6, _no_scratch)

        def fail_everywhere(lo, hi, _s):
            raise (ValueError if lo == 0 else KeyError)(lo)

        with pytest.raises(ValueError):  # the first range's error, in range order
            at_budget(3, _kernels.fan_out_ranges, fail_everywhere, 6, 6, _no_scratch)

    def test_fan_out_ranges_covers_each_item_once_under_thread_switching(self, at_budget):
        # more threads than cores and a thread switch at almost every
        # bytecode: an item run twice or never shows in `ran`
        ran = []

        def task(lo, hi, _s):
            for i in range(lo, hi):
                ran.append(i)
            return lo, hi

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                ran.clear()
                got = at_budget(8, _kernels.fan_out_ranges, task, 200, 200, _no_scratch)
                assert got == [(25 * j, 25 * (j + 1)) for j in range(8)]
                assert sorted(ran) == list(range(200))
        finally:
            sys.setswitchinterval(interval)

    def test_fan_out_ranges_runs_small_work_and_the_first_range_on_the_calling_thread(
        self, monkeypatch
    ):
        monkeypatch.setattr(_kernels, "_budget", 2)
        me = threading.get_ident()
        small = 2 * _kernels.FAN_OUT_MIN_ELEMENTS - 1  # two ranges would be below the floor

        def thread(lo, hi, _s):
            return threading.get_ident()

        assert _kernels.fan_out_ranges(thread, 4, small, _no_scratch) == [me]
        first, second = _kernels.fan_out_ranges(thread, 4, small + 1, _no_scratch)
        assert first == me != second

    def test_fan_out_ranges_makes_every_scratch_on_the_calling_thread_before_any_task(
        self, at_budget
    ):
        # once per range, in range order, on this thread, before any task
        # starts; each task gets the value made for its own range
        me = threading.get_ident()
        events = []

        def scratch(lo, hi):
            events.append(("scratch", lo, hi, threading.get_ident()))
            return ["scratch of", lo, hi]

        def task(lo, hi, s):
            events.append(("task", lo, hi))
            return lo, hi, s

        for budget in (1, 2, 3):
            events.clear()
            got = at_budget(budget, _kernels.fan_out_ranges, task, 6, 6, scratch)
            ranges = _kernels.near_equal_ranges(0, 6, budget)
            assert events[: len(ranges)] == [("scratch", lo, hi, me) for lo, hi in ranges]
            assert sorted(events[len(ranges) :]) == [("task", lo, hi) for lo, hi in ranges]
            assert got == [(lo, hi, ["scratch of", lo, hi]) for lo, hi in ranges]

    def test_calls_with_different_part_counts_share_one_pool(self, at_budget):
        pools = []
        for n in (2, 3, 4):
            ranges = at_budget(4, _kernels.fan_out_ranges, lambda lo, hi, _s: lo, n, n, _no_scratch)
            assert len(ranges) == n
            pools.append(_kernels._pool[-1])
        assert pools[0] is pools[1] is pools[2]

    @pytest.mark.parametrize("alpha2", ALPHA2_SETTINGS)
    def test_loss_and_gradient_bits_match_serial(self, monkeypatch, setup, at_budget, alpha2):
        # 4 b-values: 2 images per thread, 1-1-2 at budget 3, 1 each at 4
        maps, roi, _, moving, fields, _ = setup
        for dtype in DTYPES:
            monkeypatch.setattr(objective, "WORK_DTYPE", dtype)
            u = stack_fields(fields)
            out = {}
            for budget in (1, 2, 3, 4):
                grad = np.full_like(u, np.nan)
                ws = Workspace(moving, maps, roi)
                bd = at_budget(budget, loss_and_gradient, ws, u, alpha2, grad)
                out[budget] = bd, grad
            for budget in (2, 3, 4):
                assert out[budget][0] == out[1][0], (dtype, budget)
                np.testing.assert_array_equal(out[budget][1], out[1][1])

    def test_per_term_gradients_bits_match_serial(self, monkeypatch, setup, at_budget):
        maps, roi, _, moving, fields, _ = setup
        for dtype in DTYPES:
            monkeypatch.setattr(objective, "WORK_DTYPE", dtype)
            serial = at_budget(1, per_term_gradients, moving, fields, maps, roi)
            for budget in (2, 3, 4):
                threaded = at_budget(budget, per_term_gradients, moving, fields, maps, roi)
                for term, grad in serial.items():
                    assert grad.dtype == dtype
                    np.testing.assert_array_equal(threaded[term], grad)

    @pytest.mark.parametrize("budget", [2, 3])
    @pytest.mark.parametrize("n", [5, 49157])
    def test_adam_update_bits_match_serial(self, monkeypatch, rng, at_budget, budget, n):
        # the step taken one thread range at a time, as the registration's
        # evaluation takes it group by group, against one call over the
        # whole array; with blocks of 4096, 49157 elements are 13 blocks
        # with the last one partial, which the ranges split between blocks
        monkeypatch.setattr(_kernels, "ADAM_BLOCK", 4096)
        x0 = rng.normal(0, 1, n)
        for dtype in DTYPES:
            out = {}
            for b in (1, budget):
                x, m, v = x0.astype(dtype), np.zeros(n, dtype), np.zeros(n, dtype)

                def nan_scratch(lo, hi):
                    return np.full(2 * _kernels.ADAM_BLOCK, np.nan, dtype)

                def step_range(lo, hi, scratch):
                    args = (0.1, 0.9, 0.999, 1e-8, 1.0 - 0.9**t, 1.0 - 0.999**t, scratch)
                    _kernels.adam_update(x[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi], *args)
                    return hi - lo

                for t in range(1, 4):
                    g = np.random.default_rng(t).normal(0, 1, n).astype(dtype)
                    ranges = at_budget(b, _kernels.fan_out_ranges, step_range, n, n, nan_scratch)
                    assert len(ranges) == b
                out[b] = x, m, v
            for got, want in zip(out[budget], out[1]):
                assert got.dtype == dtype
                np.testing.assert_array_equal(got, want)

    def test_forked_worker_makes_its_own_pool(self, at_budget):
        # the parent's pool exists before the fork; its threads do not
        # exist in the child, which must start its own
        at_budget(2, _kernels.fan_out_ranges, lambda lo, hi, _s: lo, 4, 4, _no_scratch)
        assert _kernels._pool[:2] == (os.getpid(), 2)
        with ProcessPoolExecutor(
            1,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_kernels.set_thread_budget,
            initargs=(2,),
        ) as pool:
            ranges, own_pool = pool.submit(_ranges_in_forked_worker).result(timeout=60)
        assert ranges == [[0, 1, 2], [3, 4, 5]]
        assert own_pool

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            _kernels.set_thread_budget(0)


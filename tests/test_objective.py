import multiprocessing
import os
import sys
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from dwimoco import _kernels
from dwimoco.objective import (
    EmptyRoiError,
    LossBreakdown,
    LossWeights,
    loss_and_gradient,
    model_fit_loss,
    per_term_gradients,
    similarity_loss,
    smoothness_loss,
    total_loss,
)
from dwimoco.phantom import PhantomSpec, make_phantom
from dwimoco.signal_model import ParameterMaps, reconstruct
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


@pytest.fixture(scope="module")
def setup():
    """Smooth fixed/moving pair with residuals bounded away from L1 ties."""
    maps, roi = make_phantom(PhantomSpec(dims=DIMS, roi_margin=1.0, boundary_sigma=0.8))
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
        # d u_x / d x == 1 everywhere (one-sided borders are exact on a ramp)
        n_vox = np.prod(dims)
        assert n_vox * smoothness_loss(field) == pytest.approx(n_vox, rel=1e-12)
        assert smoothness_loss(field) == pytest.approx(1.0, rel=1e-12)

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
        bd = total_loss(fixed, fixed, zero, maps, roi, LossWeights(0.01, 1000.0))
        assert bd.similarity == 0.0
        assert bd.smooth == 0.0
        assert bd.model_fit == pytest.approx(0.0, abs=1e-24)
        assert bd.total == pytest.approx(0.0, abs=1e-20)

    def test_zero_weights_reduce_to_similarity(self, setup):
        maps, roi, fixed, moving, fields, _ = setup
        bd = total_loss(fixed, moving, fields, maps, roi, LossWeights(0.0, 0.0))
        assert bd.total == bd.similarity

    def test_weighted_sum_identity(self, setup):
        maps, roi, fixed, moving, fields, _ = setup
        w = LossWeights(0.01, 1000.0)
        bd = total_loss(fixed, moving, fields, maps, roi, w)
        assert bd.total == bd.similarity + w.alpha1 * bd.smooth + w.alpha2 * bd.model_fit

    def test_paper_weight_arithmetic(self):
        bd = LossBreakdown(0.2, 3.0, 1e-4, 0.2 + 0.01 * 3.0 + 1000.0 * 1e-4)
        assert bd.total == pytest.approx(0.33, rel=1e-12)

    def test_fused_path_matches_reference(self, setup):
        maps, roi, fixed, moving, fields, u = setup
        for alpha2 in ALPHA2_SETTINGS:
            w = LossWeights(0.01, alpha2)
            ref = total_loss(fixed, moving, fields, maps, roi, w)
            fused = loss_and_gradient(fixed, moving, u, maps, roi, w, np.empty_like(u))
            assert fused.similarity == pytest.approx(ref.similarity, rel=1e-12)
            assert fused.smooth == pytest.approx(ref.smooth, rel=1e-12)
            assert fused.model_fit == pytest.approx(ref.model_fit, rel=1e-12)
            assert fused.model_fit > 0.0  # reported unweighted at every alpha2
            if alpha2 == 0.0:
                for bd in (ref, fused):
                    assert bd.total == bd.similarity + w.alpha1 * bd.smooth


def _fd_term(term, fixed, moving, maps, roi, u, i, c, idx, h=1e-3):
    up = u.copy()
    up[(i,) + idx + (c,)] += h
    dn = u.copy()
    dn[(i,) + idx + (c,)] -= h
    w = LossWeights(0.01, 1000.0)
    f_up = [DisplacementField(up[j]) for j in range(u.shape[0])]
    f_dn = [DisplacementField(dn[j]) for j in range(u.shape[0])]
    t_up = total_loss(fixed, moving, f_up, maps, roi, w)
    t_dn = total_loss(fixed, moving, f_dn, maps, roi, w)
    return (getattr(t_up, term) - getattr(t_dn, term)) / (2 * h)


class TestGradients:
    def test_zero_gradient_at_global_minimum(self, setup):
        maps, roi, fixed, _, _, _ = setup
        zero = np.zeros((len(BVALUES),) + DIMS + (3,))
        weights = LossWeights(0.01, 1000.0)
        grad = np.full_like(zero, np.nan)  # every entry is overwritten
        loss_and_gradient(fixed, fixed, zero, maps, roi, weights, grad)
        terms = per_term_gradients(
            fixed, fixed, [DisplacementField(z) for z in zero], maps, roi
        )
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
                weights.alpha2 * 2 / (len(BVALUES) * roi.count)
                * (res_bound / w_i)[..., None] * np.abs(dw)
            )
        assert bound.max() <= 1e-14
        assert np.all(np.abs(grad) <= bound), np.abs(grad).max()

    @pytest.mark.parametrize("term", ["similarity", "smooth", "model_fit"])
    def test_terms_match_finite_differences(self, setup, rng, term):
        maps, roi, fixed, moving, fields, u = setup
        grads = per_term_gradients(fixed, moving, fields, maps, roi)[term]
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
            f = _fd_term(term, fixed, moving, maps, roi, u, i, c, p)
            rel = abs(a - f) / max(abs(a), abs(f), 1e-12)
            worst = max(worst, rel)
            checked += 1
        assert worst < 1e-4, f"{term}: worst rel err {worst}"

    def test_total_gradient_is_weighted_sum_of_terms(self, setup):
        maps, roi, fixed, moving, fields, u = setup
        terms = per_term_gradients(fixed, moving, fields, maps, roi)
        for alpha2 in ALPHA2_SETTINGS:
            w = LossWeights(0.01, alpha2)
            grad = np.empty_like(u)
            loss_and_gradient(fixed, moving, u, maps, roi, w, grad)
            combo = (
                terms["similarity"] + w.alpha1 * terms["smooth"] + w.alpha2 * terms["model_fit"]
            )
            np.testing.assert_allclose(grad, combo, rtol=1e-9, atol=1e-15)

    def test_smooth_gradient_vanishes_for_affine_interior(self):
        # discrete Laplacian of a linear field is zero away from borders
        dims = (7, 6, 5)
        u = np.zeros(dims + (3,))
        u[..., 0] = np.arange(dims[0], dtype=float)[:, None, None]
        fixed = constant_series(dims, 1.0)
        fields = [DisplacementField(u) for _ in fixed.bvalues]
        g = per_term_gradients(
            fixed,
            fixed,
            fields,
            ParameterMaps(ScalarVolume(np.zeros(dims)), ScalarVolume(np.zeros(dims))),
            RoiMask(np.ones(dims, dtype=bool)),
        )["smooth"]
        np.testing.assert_allclose(g[0, 2:-2, 2:-2, 2:-2], 0.0, rtol=0, atol=1e-12)
        assert np.abs(g[0]).max() > 0  # borders carry the one-sided terms


class TestAdjointProperty:
    def test_axis_diff_adjoint_dot_product(self, rng):
        # axis lengths 2, 3, 4 and 6 reach every branch of the border rows
        for shape in [(6, 5, 4), (2, 3, 4), (4, 2, 3), (3, 4, 2)]:
            for axis in range(3):
                a = rng.normal(0, 1, shape + (3,))
                w = rng.normal(0, 1, shape + (3,))
                diff = _kernels.field_diff(a, axis, np.empty_like(a))
                for c in range(3):
                    np.testing.assert_array_equal(diff[..., c], np.gradient(a[..., c], axis=axis))
                lhs = float((diff * w).sum())
                rhs = float((a * _kernels.field_diff_adjoint(w, axis, np.empty_like(w))).sum())
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_field_diff_needs_two_voxels(self):
        u = np.zeros((3, 1, 4, 3))
        with pytest.raises(ValueError, match="at least 2 voxels"):
            _kernels.field_diff(u, 1, np.empty_like(u))


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

    def test_match_terms_sums_match_term_losses(self, setup):
        maps, roi, fixed, moving, fields, u = setup
        n_b = len(BVALUES)
        n_vox = int(np.prod(DIMS))
        sim_total = 0.0
        mf_total = 0.0
        for i, b in enumerate(BVALUES):
            pred = maps.log_s0.data - b * maps.adc.data
            s, m = _kernels.match_terms(
                moving.volumes[i].data, u[i], fixed.volumes[i].data, pred, roi.data,
                1e-6, 0.3, 0.7, np.zeros(DIMS + (3,)),
            )
            sim_total += s
            mf_total += m
        warped = warp_series(moving, fields)
        assert sim_total / (n_b * n_vox) == pytest.approx(
            similarity_loss(fixed, warped), rel=1e-12
        )
        assert mf_total / (n_b * roi.count) == pytest.approx(
            model_fit_loss(warped, maps, roi), rel=1e-12
        )

    @pytest.mark.parametrize(
        "dims", [(2, 2, 2), (3, 5, 2), (8, 7, 6)], ids=["2x2x2", "3x5x2", "8x7x6"]
    )
    def test_smooth_loss_grad_matches_smoothness_loss(self, rng, dims):
        u = rng.normal(0, 1, dims + (3,))
        grad = np.zeros_like(u)
        weight = 0.37
        loss = _kernels.smooth_loss_grad(u, grad, weight)
        n_vox = np.prod(dims)
        assert loss == pytest.approx(n_vox * smoothness_loss(DisplacementField(u)), rel=1e-12)
        # the loss is quadratic in u, so central differences are exact up to rounding
        h = 1e-3
        for idx in np.ndindex(u.shape):
            up = u.copy()
            up[idx] += h
            dn = u.copy()
            dn[idx] -= h
            fd = (
                n_vox * smoothness_loss(DisplacementField(up))
                - n_vox * smoothness_loss(DisplacementField(dn))
            ) / (2 * h)
            assert grad[idx] == pytest.approx(weight * fd, rel=1e-7, abs=1e-9)

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

        for t in range(1, 4):
            g = rng.normal(0, 1, n)
            x0, m0, v0 = x.copy(), m.copy(), v.copy()
            _kernels.adam_update(
                x, g, m, v, lr, beta1, beta2, eps, 1.0 - beta1**t, 1.0 - beta2**t
            )
            close(m, beta1 * m0, (1 - beta1) * g)
            close(v, beta2 * v0, (1 - beta2) * g**2)
            m_hat = (beta1 * m0 + (1 - beta1) * g) / (1 - beta1**t)
            v_hat = (beta2 * v0 + (1 - beta2) * g**2) / (1 - beta2**t)
            close(x, x0, -lr * m_hat / (np.sqrt(v_hat) + eps))


def _fan_out_in_forked_worker():
    """Squares 0..5 through `fan_out`, and whether its pool is this process's."""
    squares = _kernels.fan_out(lambda i: i * i, 6, 1)
    return squares, _kernels._pool[0] == os.getpid()


class TestThreadBudget:
    """Budget 1 is the serial loop and the oracle: every budget gives its bits.

    The test arrays are small, so the size floor of `fan_out` is lowered to
    let them take the threaded path.
    """

    @pytest.fixture
    def at_budget(self, monkeypatch):
        monkeypatch.setattr(_kernels, "FAN_OUT_MIN_ELEMENTS", 1)

        def run(budget, fn, *args):
            monkeypatch.setattr(_kernels, "_budget", budget)
            return fn(*args)

        return run

    def test_fan_out_keeps_task_order_and_raises_task_errors(self, at_budget):
        squares = at_budget(2, _kernels.fan_out, lambda i: i * i, 7, 1)
        assert squares == [i * i for i in range(7)]
        assert at_budget(2, _kernels.fan_out, lambda i: i, 0, 1) == []

        def fail_on_three(i):
            if i == 3:
                raise KeyError(i)
            return i

        with pytest.raises(KeyError):
            at_budget(2, _kernels.fan_out, fail_on_three, 6, 1)

    def test_fan_out_runs_each_task_once_under_thread_switching(self, at_budget):
        # more threads than cores and a thread switch at almost every
        # bytecode: a task claimed twice or never shows in `ran`
        ran = []

        def task(i):
            ran.append(i)
            return -i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                ran.clear()
                assert at_budget(8, _kernels.fan_out, task, 200, 1) == [-i for i in range(200)]
                assert sorted(ran) == list(range(200))
        finally:
            sys.setswitchinterval(interval)

    def test_fan_out_keeps_small_tasks_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_budget", 2)
        small = _kernels.FAN_OUT_MIN_ELEMENTS - 1
        threads = _kernels.fan_out(lambda i: threading.get_ident(), 4, small)
        assert threads == [threading.get_ident()] * 4

    @pytest.mark.parametrize("alpha2", ALPHA2_SETTINGS)
    def test_loss_and_gradient_bits_match_serial(self, setup, at_budget, alpha2):
        maps, roi, fixed, moving, _, u = setup
        w = LossWeights(0.01, alpha2)
        out = {}
        for budget in (1, 2):
            grad = np.full_like(u, np.nan)
            bd = at_budget(budget, loss_and_gradient, fixed, moving, u, maps, roi, w, grad)
            out[budget] = bd, grad
        assert out[2][0] == out[1][0]
        np.testing.assert_array_equal(out[2][1], out[1][1])

    def test_per_term_gradients_bits_match_serial(self, setup, at_budget):
        maps, roi, fixed, moving, fields, _ = setup
        serial = at_budget(1, per_term_gradients, fixed, moving, fields, maps, roi)
        threaded = at_budget(2, per_term_gradients, fixed, moving, fields, maps, roi)
        for term, grad in serial.items():
            np.testing.assert_array_equal(threaded[term], grad)

    @pytest.mark.parametrize("budget", [2, 3])
    @pytest.mark.parametrize("n", [5, 3 * _kernels.ADAM_BLOCK + 5])
    def test_adam_update_bits_match_serial(self, rng, at_budget, budget, n):
        # one partial block, and 4 blocks with the last one partial, which
        # the parts split between whole blocks
        start = [rng.normal(0, 1, n), np.zeros(n), np.zeros(n)]
        out = {}
        for b in (1, budget):
            x, m, v = (a.copy() for a in start)
            for t in range(1, 4):
                g = np.random.default_rng(t).normal(0, 1, n)
                bc1, bc2 = 1.0 - 0.9**t, 1.0 - 0.999**t
                at_budget(b, _kernels.adam_update, x, g, m, v, 0.1, 0.9, 0.999, 1e-8, bc1, bc2)
            out[b] = x, m, v
        for got, want in zip(out[budget], out[1]):
            np.testing.assert_array_equal(got, want)

    def test_forked_worker_makes_its_own_pool(self, at_budget):
        # the parent's pool exists before the fork; its threads do not
        # exist in the child, which must start its own
        at_budget(2, _kernels.fan_out, lambda i: i, 4, 1)
        assert _kernels._pool[0] == os.getpid()
        with ProcessPoolExecutor(
            1,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_kernels.set_thread_budget,
            initargs=(2,),
        ) as pool:
            squares, own_pool = pool.submit(_fan_out_in_forked_worker).result(timeout=60)
        assert squares == [i * i for i in range(6)]
        assert own_pool

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            _kernels.set_thread_budget(0)


class TestLossWeights:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LossWeights(-0.1, 1.0)
        with pytest.raises(ValueError):
            LossWeights(0.1, np.inf)

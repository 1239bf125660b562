import threading

import numpy as np
import pytest

from dwimoco import _kernels, signal_model
from dwimoco.signal_model import (
    DegenerateDesignError,
    UndefinedRSquaredError,
    forward_signal,
    irls_fit,
    irls_fit_volume,
    lls_fit,
    lls_fit_curve,
    r_squared,
    reconstruct,
    roi_mean_signals,
)
from dwimoco.volume import BValueSeries, RoiMask, ScalarVolume

PAPER_BVALUES = (0.0, 50.0, 100.0, 200.0, 400.0, 600.0)


def series_from_maps(s0, adc, bvalues=PAPER_BVALUES):
    vols = tuple(ScalarVolume(forward_signal(s0, adc, b)) for b in bvalues)
    return BValueSeries(bvalues, vols)


class TestForwardSignal:
    def test_zero_adc_keeps_signal(self):
        assert forward_signal(100.0, 0.0, 600.0) == pytest.approx(100.0, rel=1e-15)

    def test_b_zero_returns_s0(self):
        assert forward_signal(1.0, 3.2e-3, 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_direct_evaluation(self):
        # 100 * exp(-500 * 2e-3) = 100 / e
        assert forward_signal(100.0, 2e-3, 500.0) == pytest.approx(100.0 / np.e, rel=1e-12)


class TestLlsFit:
    def test_noiseless_recovery_exact(self, rng):
        dims = (8, 7, 5)
        s0 = np.full(dims, 1.0)
        adc = np.full(dims, 3e-3)
        fit = lls_fit(series_from_maps(s0, adc))
        np.testing.assert_allclose(fit.adc.data, 3e-3, rtol=1e-10)
        np.testing.assert_allclose(fit.log_s0.data, 0.0, rtol=0, atol=1e-10)

    def test_noiseless_recovery_random_maps(self, rng):
        dims = (6, 5, 4)
        s0 = 0.5 + rng.random(dims)
        adc = 1e-3 + 2.5e-3 * rng.random(dims)
        fit = lls_fit(series_from_maps(s0, adc))
        np.testing.assert_allclose(fit.adc.data, adc, rtol=1e-10)
        np.testing.assert_allclose(fit.log_s0.data, np.log(s0), rtol=1e-10)

    def test_constant_signal_gives_zero_adc(self):
        dims = (4, 4, 3)
        vols = tuple(ScalarVolume(np.full(dims, 0.8)) for _ in PAPER_BVALUES)
        fit = lls_fit(BValueSeries(PAPER_BVALUES, vols))
        np.testing.assert_allclose(fit.adc.data, 0.0, rtol=0, atol=1e-15)

    def test_two_point_series_exact_line(self):
        dims = (2, 2, 2)
        bvals = (0.0, 1000.0)
        vols = (
            ScalarVolume(np.full(dims, np.exp(0.0))),
            ScalarVolume(np.full(dims, np.exp(-2.0))),
        )
        fit = lls_fit(BValueSeries(bvals, vols))
        np.testing.assert_allclose(fit.adc.data, 2e-3, rtol=1e-12)

    def test_scale_invariance_of_adc(self, rng):
        dims = (5, 4, 3)
        s0 = 0.5 + rng.random(dims)
        adc = 1e-3 + 2e-3 * rng.random(dims)
        base = series_from_maps(s0, adc)
        scaled = BValueSeries(
            base.bvalues, tuple(ScalarVolume(v.data * 3.7) for v in base.volumes)
        )
        np.testing.assert_allclose(
            lls_fit(scaled).adc.data, lls_fit(base).adc.data, rtol=1e-12
        )

    def test_degenerate_design(self):
        with pytest.raises(DegenerateDesignError, match="degenerate design"):
            lls_fit_curve([1.0, 1.0, 1.0], [100.0, 100.0, 100.0])


def _weights(resid):
    """The IRLS weight of each log residual."""
    return 1.0 / np.maximum(np.abs(resid), signal_model.IRLS_RESIDUAL_FLOOR)


class TestIrlsFit:
    def test_matches_lls_on_clean_data(self):
        b = np.array(PAPER_BVALUES)
        sig = forward_signal(1.3, 2.2e-3, b)
        log_s0, adc, r2 = irls_fit(sig, b)
        assert adc == pytest.approx(2.2e-3, rel=1e-10)
        assert log_s0 == pytest.approx(np.log(1.3), rel=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_floor_makes_weights_uniform_on_clean_data(self):
        b = np.array(PAPER_BVALUES)
        sig = forward_signal(1.0, 2e-3, b)
        log_s0, adc, _ = irls_fit(sig, b)
        # all residuals < 1e-4 -> every weight hits the 1/1e-4 cap
        resid = (log_s0 - b * adc) - signal_model.floored_log(sig)
        np.testing.assert_allclose(_weights(resid), 1e4, rtol=0, atol=0)
        _, adc_lls, _ = lls_fit_curve(sig, b)
        assert adc == pytest.approx(adc_lls, rel=1e-12)

    def test_outlier_gets_minimum_weight_and_better_adc(self, rng):
        b = np.array(PAPER_BVALUES)
        for trial in range(25):
            s0 = 0.5 + rng.random()
            adc = 1e-3 + 2e-3 * rng.random()
            corrupt = int(rng.integers(0, len(b)))
            sig = forward_signal(s0, adc, b)
            sig[corrupt] *= 2.0
            log_s0_irls, adc_irls, _ = irls_fit(sig, b)
            _, adc_lls, _ = lls_fit_curve(sig, b)
            resid = (log_s0_irls - b * adc_irls) - signal_model.floored_log(sig)
            assert np.argmin(_weights(resid)) == corrupt
            assert abs(adc_irls - adc) < abs(adc_lls - adc)

    def test_volume_variant_matches_scalar(self, rng):
        dims = (4, 3, 2)
        s0 = 0.5 + rng.random(dims)
        adc = 1e-3 + 2e-3 * rng.random(dims)
        series = series_from_maps(s0, adc)
        # corrupt one b-value over the whole volume
        vols = list(series.volumes)
        vols[3] = ScalarVolume(vols[3].data * 1.7)
        series = BValueSeries(series.bvalues, tuple(vols))
        maps, r2 = irls_fit_volume(series)
        b = np.array(series.bvalues)
        stack = series.stack()
        for p in [(0, 0, 0), (3, 2, 1), (1, 1, 1)]:
            _, adc_p, r2_p = irls_fit(stack[(slice(None),) + p], b)
            assert maps.adc.data[p] == pytest.approx(adc_p, rel=1e-9)
            assert r2.data[p] == pytest.approx(r2_p, rel=1e-9)


class TestReconstruct:
    def test_round_trip_on_model_series(self, rng):
        dims = (5, 4, 3)
        s0 = 0.5 + rng.random(dims)
        adc = 1e-3 + 2e-3 * rng.random(dims)
        series = series_from_maps(s0, adc)
        rec = reconstruct(lls_fit(series), series.bvalues)
        for a, b in zip(rec.volumes, series.volumes):
            np.testing.assert_allclose(a.data, b.data, rtol=1e-10)

    def test_zero_adc_reproduces_s0(self, rng):
        dims = (3, 3, 2)
        maps = lls_fit(series_from_maps(np.full(dims, 2.0), np.zeros(dims)))
        rec = reconstruct(maps, (0.0, 300.0))
        np.testing.assert_allclose(rec.volumes[1].data, 2.0, rtol=1e-10)

    def test_log_s0_shift_scales_signals(self, rng):
        dims = (3, 3, 2)
        s0 = 0.5 + rng.random(dims)
        adc = 1e-3 + 2e-3 * rng.random(dims)
        maps = lls_fit(series_from_maps(s0, adc))
        shifted = type(maps)(
            ScalarVolume(maps.log_s0.data + np.log(2.0)), maps.adc
        )
        rec = reconstruct(maps, PAPER_BVALUES)
        rec2 = reconstruct(shifted, PAPER_BVALUES)
        for a, b in zip(rec2.volumes, rec.volumes):
            np.testing.assert_allclose(a.data, 2.0 * b.data, rtol=1e-12)


class TestRSquared:
    def test_perfect_prediction(self):
        assert r_squared([0.1, 0.5, 0.9], [0.1, 0.5, 0.9]) == pytest.approx(1.0)

    def test_mean_prediction_scores_zero(self):
        obs = np.array([0.0, 1.0, 2.0])
        assert r_squared(obs, np.full(3, obs.mean())) == pytest.approx(0.0, abs=1e-15)

    def test_hand_computed_value(self):
        # ss_res = 1, ss_tot = 2 -> 0.5
        assert r_squared([0.0, 1.0, 2.0], [0.0, 1.0, 3.0]) == pytest.approx(0.5, rel=1e-15)

    def test_zero_variance_error(self):
        with pytest.raises(UndefinedRSquaredError, match="undefined"):
            r_squared([1.0, 1.0, 1.0], [1.0, 2.0, 1.0])


class TestRoiMeanSignals:
    def test_restricts_to_mask(self):
        dims = (3, 3, 2)
        data0 = np.zeros(dims)
        data0[0, 0, 0] = 6.0
        data0[1, 1, 1] = 2.0
        mask = np.zeros(dims, dtype=bool)
        mask[0, 0, 0] = mask[1, 1, 1] = True
        series = BValueSeries(
            (0.0, 100.0), (ScalarVolume(data0), ScalarVolume(np.ones(dims)))
        )
        means = roi_mean_signals(series, RoiMask(mask))
        np.testing.assert_allclose(means, [4.0, 1.0])

    def test_empty_roi_rejected(self):
        series = series_from_maps(np.ones((2, 2, 2)), np.full((2, 2, 2), 1e-3))
        with pytest.raises(ValueError, match="empty ROI"):
            roi_mean_signals(series, RoiMask(np.zeros((2, 2, 2), dtype=bool)))


def _oracle_solve(b, y, w=None):
    """The whole-array weighted LLS that the block solve replaced."""
    b = b.reshape((-1,) + (1,) * (y.ndim - 1))
    if w is None:
        w = np.ones_like(y)
    sw = w.sum(axis=0)
    sb = (w * b).sum(axis=0)
    sbb = (w * b * b).sum(axis=0)
    sy = (w * y).sum(axis=0)
    sby = (w * b * y).sum(axis=0)
    det = sw * sbb - sb * sb
    if np.any(det <= 0) or not np.all(np.isfinite(det)):
        raise DegenerateDesignError("degenerate design: b-values carry no spread")
    return (sbb * sy - sb * sby) / det, (sb * sy - sw * sby) / det


def _oracle_irls(b, y):
    """The whole-array IRLS loop over a (B, ...) stack that the blocked one replaced."""
    bcol = b.reshape((-1,) + (1,) * (y.ndim - 1))
    log_s0, adc = _oracle_solve(b, y)
    iterations = 1
    done = False
    while True:
        resid = (log_s0 - bcol * adc) - y
        if done or iterations == signal_model.IRLS_MAX_ITER:
            return log_s0, adc, resid, iterations
        new_log_s0, new_adc = _oracle_solve(b, y, _weights(resid))
        iterations += 1
        tol = signal_model.IRLS_TOL * np.maximum(np.abs(adc), np.finfo(float).tiny)
        done = bool(np.all(np.abs(new_adc - adc) <= tol))
        log_s0, adc = new_log_s0, new_adc


def _noisy_series(rng, dims, bvalues, noise):
    """Decay series with per-voxel S0 and ADC.  Where noise (a number, or an
    array that broadcasts to dims) is > 0, the voxels get Gaussian noise of
    that relative size and one corrupted b-value, an outlier for IRLS."""
    b = np.asarray(bvalues)
    s0 = 0.5 + rng.random(dims)
    adc = 1e-3 + 2e-3 * rng.random(dims)
    stack = forward_signal(s0, adc, b.reshape(-1, 1, 1, 1))
    noise = np.broadcast_to(noise, dims)
    stack *= 1.0 + noise * rng.standard_normal(stack.shape)
    corrupt = rng.integers(0, len(b), dims)
    outlier = np.where(noise > 0, 1.5, 1.0) * np.take_along_axis(stack, corrupt[None], 0)
    np.put_along_axis(stack, corrupt[None], outlier, 0)
    return BValueSeries(tuple(bvalues), tuple(ScalarVolume(v) for v in stack))


NINE_BVALUES = (0.0, 25.0, 50.0, 100.0, 200.0, 300.0, 400.0, 500.0, 600.0)


class TestBlockedIrlsMatchesWholeArrayLoop:
    """The blocked, threaded IRLS gives the old whole-array loop's bits.

    The grids hold more voxels than FAN_OUT_MIN_ELEMENTS / B, so budgets 2
    and 3 take the threaded path, and no voxel count is a multiple of
    FIT_BLOCK.  16385 voxels at 9 b-values is one voxel past a block: a
    1-voxel block would sum its 9 rows pairwise, unlike the whole stack.
    """

    @pytest.fixture
    def at_budget(self, monkeypatch):
        def run(budget, fn, *args):
            monkeypatch.setattr(_kernels, "_budget", budget)
            return fn(*args)

        return run

    @pytest.mark.parametrize(
        "dims, bvalues, noise",
        [
            ((40, 40, 24), PAPER_BVALUES, 0.05),
            ((40, 40, 24), PAPER_BVALUES, 0.0),
            # the first half of the voxels is noisy, the second converges at
            # once: a stop that asked one thread's range only would end early
            ((40, 40, 24), PAPER_BVALUES, np.repeat([[[0.05]], [[0.0]]], 20, axis=0)),
            ((5, 29, 113), NINE_BVALUES, 0.05),
        ],
        ids=[
            "stops_at_the_cap",
            "stops_at_the_tolerance",
            "one_range_within_tolerance_early",
            "nine_b_one_voxel_past_a_block",
        ],
    )
    def test_irls_fit_volume_bits_match_the_whole_array_loop(
        self, rng, at_budget, monkeypatch, dims, bvalues, noise
    ):
        n = int(np.prod(dims))
        assert n % signal_model.FIT_BLOCK != 0
        assert n * len(bvalues) >= 2 * _kernels.FAN_OUT_MIN_ELEMENTS
        series = _noisy_series(rng, dims, bvalues, noise)
        b = np.asarray(bvalues)
        y = signal_model.floored_log(series.stack())
        log_s0, adc, resid, iterations = _oracle_irls(b, y)
        ss_tot = ((y - y.mean(axis=0)) ** 2).sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            r2 = np.where(ss_tot > 0, 1.0 - (resid**2).sum(axis=0) / ss_tot, 0.0)
        solves = []  # the (lo, hi) ranges of each whole-stack solve, one per IRLS iteration
        fan_out_ranges = _kernels.fan_out_ranges

        def record_ranges(task, n, elements):
            ranges = []

            def recorded(lo, hi):
                ranges.append((lo, hi))
                return task(lo, hi)

            solves.append(ranges)
            return fan_out_ranges(recorded, n, elements)

        monkeypatch.setattr(_kernels, "fan_out_ranges", record_ranges)
        n_voxels = y[0].size
        for budget in (1, 2, 3):
            maps, r2_map = at_budget(budget, irls_fit_volume, series)
            np.testing.assert_array_equal(maps.log_s0.data, log_s0)
            np.testing.assert_array_equal(maps.adc.data, adc)
            np.testing.assert_array_equal(r2_map.data, r2)
            solves.clear()
            at_budget(budget, signal_model._irls, b, y.reshape(len(b), -1))
            parts = min(budget, y.size // _kernels.FAN_OUT_MIN_ELEMENTS)
            want = _kernels.near_equal_ranges(0, n_voxels, parts)
            assert [sorted(ranges) for ranges in solves] == [want] * iterations
        cap = signal_model.IRLS_MAX_ITER
        assert (iterations == cap) if np.any(noise) else (iterations < cap)
        lls = at_budget(2, lls_fit, series)
        want_log_s0, want_adc = _oracle_solve(b, y)
        np.testing.assert_array_equal(lls.log_s0.data, want_log_s0)
        np.testing.assert_array_equal(lls.adc.data, want_adc)

    @pytest.mark.parametrize(
        "bvalues", [PAPER_BVALUES, NINE_BVALUES, tuple(50.0 * k for k in range(13))]
    )
    def test_curve_fits_match_the_whole_array_loop(self, rng, bvalues):
        # from 8 values up numpy sums a 1-d curve pairwise, not in order, so
        # the curve must reach the block solve as a 1-voxel block
        b = np.asarray(bvalues)
        for _ in range(20):
            sig = forward_signal(0.5 + rng.random(), 1e-3 + 2e-3 * rng.random(), b)
            sig *= 1.0 + 0.05 * rng.standard_normal(b.size)
            sig[rng.integers(0, b.size)] *= 1.5
            y = signal_model.floored_log(sig)
            log_s0, adc, _resid, _iterations = _oracle_irls(b, y)
            assert irls_fit(sig, b) == (
                float(log_s0),
                float(adc),
                r_squared(y, log_s0 - b * adc),
            )
            lls_log_s0, lls_adc = _oracle_solve(b, y)
            assert lls_fit_curve(sig, b) == (
                float(lls_log_s0),
                float(lls_adc),
                r_squared(y, lls_log_s0 - b * lls_adc),
            )

    def test_degenerate_design_in_a_helper_thread_reaches_the_caller(
        self, rng, at_budget, monkeypatch
    ):
        raised_in = []
        solve_block = signal_model._solve_block

        def fail_off_the_calling_thread(*args):
            if threading.current_thread() is not threading.main_thread():
                raised_in.append(threading.current_thread().name)
                raise DegenerateDesignError("degenerate design: injected")
            return solve_block(*args)

        monkeypatch.setattr(signal_model, "_solve_block", fail_off_the_calling_thread)
        series = _noisy_series(rng, (40, 40, 24), PAPER_BVALUES, 0.05)
        with pytest.raises(DegenerateDesignError, match="injected"):
            at_budget(2, irls_fit_volume, series)
        assert raised_in and all(name.startswith("dwimoco") for name in raised_in)

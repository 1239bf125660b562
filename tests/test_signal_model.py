import numpy as np
import pytest

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


class TestIrlsFit:
    def test_matches_lls_on_clean_data(self):
        b = np.array(PAPER_BVALUES)
        sig = forward_signal(1.3, 2.2e-3, b)
        log_s0, adc, diag = irls_fit(sig, b)
        assert adc == pytest.approx(2.2e-3, rel=1e-10)
        assert log_s0 == pytest.approx(np.log(1.3), rel=1e-10)
        assert diag.r2 == pytest.approx(1.0, abs=1e-12)

    def test_floor_makes_weights_uniform_on_clean_data(self):
        b = np.array(PAPER_BVALUES)
        sig = forward_signal(1.0, 2e-3, b)
        _, adc, diag = irls_fit(sig, b)
        # all residuals < 1e-4 -> every weight hits the 1/1e-4 cap
        np.testing.assert_allclose(diag.weights, 1e4, rtol=0, atol=0)
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
            _, adc_irls, diag = irls_fit(sig, b)
            _, adc_lls, _ = lls_fit_curve(sig, b)
            assert np.argmin(diag.weights) == corrupt
            assert abs(adc_irls - adc) < abs(adc_lls - adc)

    def test_diagnostics_shapes(self):
        b = np.array(PAPER_BVALUES)
        sig = forward_signal(1.0, 2e-3, b)
        sig[2] *= 1.5
        _, _, diag = irls_fit(sig, b)
        assert diag.residuals.shape == b.shape
        assert diag.weights.shape == b.shape
        assert diag.iterations >= 1
        assert np.all(diag.weights > 0)

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
            _, adc_p, diag = irls_fit(stack[(slice(None),) + p], b)
            assert maps.adc.data[p] == pytest.approx(adc_p, rel=1e-9)
            assert r2.data[p] == pytest.approx(diag.r2, rel=1e-9)


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

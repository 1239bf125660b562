import functools
import itertools
import threading
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog

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
from dwimoco.volume import (
    BValueSeries,
    DimensionMismatchError,
    EmptyRoiError,
    RoiMask,
    ScalarVolume,
)

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

    def test_degenerate_design(self, monkeypatch):
        def no_threads(*args):
            raise AssertionError("the design is checked before any fan-out")

        monkeypatch.setattr(_kernels, "fan_out_ranges", no_threads)
        with pytest.raises(DegenerateDesignError, match="degenerate design"):
            lls_fit_curve([1.0, 1.0, 1.0], [100.0, 100.0, 100.0])

    @pytest.mark.parametrize("fit", [lls_fit_curve, irls_fit])
    def test_curve_needs_matching_1d_inputs(self, fit):
        for signals, bvalues in [
            ([1.0, 0.5, 0.2], [0.0, 500.0]),
            ([[1.0, 0.5]], [[0.0, 500.0]]),
            ([1.0], [0.0]),
        ]:
            with pytest.raises(ValueError, match="need matching 1-d signals and bvalues"):
                fit(signals, bvalues)


class TestIrlsFit:
    def test_matches_lls_on_clean_data(self):
        b = np.array(PAPER_BVALUES)
        sig = forward_signal(1.3, 2.2e-3, b)
        log_s0, adc, r2 = irls_fit(sig, b)
        assert adc == pytest.approx(2.2e-3, rel=1e-10)
        assert log_s0 == pytest.approx(np.log(1.3), rel=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_one_corrupted_b_value_leaves_the_true_adc(self, rng):
        # five samples on the true line out-score any line an outlier pulls
        # away, so the L1 fit is that line up to rounding, where LLS is not
        b = np.array(PAPER_BVALUES)
        for trial in range(200):
            s0 = 0.5 + rng.random()
            adc = 1e-3 + 2e-3 * rng.random()
            sig = forward_signal(s0, adc, b)
            sig[rng.integers(0, len(b))] *= 2.0
            log_s0_fit, adc_fit, _ = irls_fit(sig, b)
            assert adc_fit == pytest.approx(adc, rel=1e-12)
            assert log_s0_fit == pytest.approx(np.log(s0), rel=1e-12)
            _, adc_lls, _ = lls_fit_curve(sig, b)
            assert abs(adc_lls - adc) > 1e-3 * adc

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
        for p in np.ndindex(dims):
            log_s0_p, adc_p, r2_p = irls_fit(stack[(slice(None),) + p], b)
            assert maps.log_s0.data[p] == log_s0_p
            assert maps.adc.data[p] == adc_p
            assert r2.data[p] == r2_p

    def test_equal_b_values_are_a_degenerate_design(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDesignError, match="degenerate design"):
                irls_fit([1.0, 1.0, 1.0], [100.0, 100.0, 100.0])

    def test_pairs_of_equal_b_values_are_skipped(self, rng):
        b = np.array([0.0, 0.0, 300.0, 300.0, 600.0])
        sig = forward_signal(1.0, 2e-3, b) * (1.0 + 0.05 * rng.standard_normal(b.size))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_s0, adc, _ = irls_fit(sig, b)
        y = signal_model.floored_log(sig)
        assert (log_s0, adc) == tuple(float(v) for v in _oracle_lad(b, y))
        assert _l1_cost(b, y, log_s0, adc) <= _lp_l1_cost(b, y) + 1e-12

    def test_a_voxel_whose_costs_are_all_nan_keeps_its_first_pair_line(self):
        b = np.array(PAPER_BVALUES)
        y = np.log(forward_signal(1.0, 2e-3, b))[:, None].repeat(2, axis=1)
        y[-1, 1] = np.nan  # every line has a NaN residual at b = 600 in voxel 1
        log_s0, adc = signal_model._lad(b, y)
        assert adc[1] == (y[0, 1] - y[1, 1]) / (b[1] - b[0])
        assert log_s0[1] == y[0, 1] + b[0] * adc[1]
        assert adc[0] == pytest.approx(2e-3, rel=1e-12)


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
        with pytest.raises(EmptyRoiError, match="empty ROI"):
            roi_mean_signals(series, RoiMask(np.zeros((2, 2, 2), dtype=bool)))

    def test_roi_on_another_grid_rejected(self):
        series = series_from_maps(np.ones((2, 2, 2)), np.full((2, 2, 2), 1e-3))
        with pytest.raises(DimensionMismatchError):
            roi_mean_signals(series, RoiMask(np.ones((2, 2, 3), dtype=bool)))


def _oracle_lad(b, y):
    """The L1 fit as one whole-array search over a (B, ...) stack: the line
    through every pair of samples with distinct b-values and its cost at
    once, then the first pair with the lowest cost."""
    pairs = [(i, j) for i, j in itertools.combinations(range(len(b)), 2) if b[i] != b[j]]
    i, j = np.array(pairs).T
    bpair = (-1,) + (1,) * (y.ndim - 1)
    adc = (y[i] - y[j]) / (b[j] - b[i]).reshape(bpair)
    log_s0 = y[i] + b[i].reshape(bpair) * adc
    cost = sum(abs((log_s0 - bk * adc) - yk) for bk, yk in zip(b, y))
    first_best = np.argmin(cost, axis=0)[None]
    return tuple(np.take_along_axis(v, first_best, 0)[0] for v in (log_s0, adc))


def _l1_cost(b, y, log_s0, adc):
    """Sum of the absolute log residuals of the line (log_s0, adc) on a curve y (B,)."""
    return float(np.abs((log_s0 - b * adc) - y).sum())


def _lp_l1_cost(b, y):
    """The L1 cost of the line that the HiGHS LP solver finds for a curve y (B,).

    The LP: minimize sum_k e_k over (log S0, ADC, e) subject to
    -e_k <= log S0 - b_k ADC - y_k <= e_k.  The cost is recomputed from the
    line, not taken from the LP's objective, which may sit below the true
    optimum by the solver's feasibility tolerance.
    """
    n = len(b)
    line = np.column_stack([np.ones(n), -b])
    res = linprog(
        np.r_[0.0, 0.0, np.ones(n)],
        A_ub=np.block([[line, -np.eye(n)], [-line, -np.eye(n)]]),
        b_ub=np.r_[y, -y],
        bounds=[(None, None)] * 2 + [(0.0, None)] * n,
        method="highs",
    )
    assert res.status == 0, res.message
    return _l1_cost(b, y, *res.x[:2])


def _rows_in_order(a):
    """a[0] + a[1] + ... over the first axis, added one row at a time."""
    return functools.reduce(np.add, a)


def _oracle_solve(b, y):
    """The whole-array LLS, with every sum over the b-values added in row order."""
    b = b.reshape((-1,) + (1,) * (y.ndim - 1))
    w = np.ones_like(y)
    sw = _rows_in_order(w)
    sb = _rows_in_order(w * b)
    sbb = _rows_in_order(w * b * b)
    sy = _rows_in_order(w * y)
    sby = _rows_in_order(w * b * y)
    det = sw * sbb - sb * sb
    if np.any(det <= 0) or not np.all(np.isfinite(det)):
        raise DegenerateDesignError("degenerate design: b-values carry no spread")
    return (sbb * sy - sb * sby) / det, (sb * sy - sw * sby) / det


def _noisy_series(rng, dims, bvalues, noise):
    """Decay series with per-voxel S0 and ADC.  Where noise (a number, or an
    array that broadcasts to dims) is > 0, the voxels get Gaussian noise of
    that relative size and one corrupted b-value, an outlier for the L1 fit."""
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
    """The blocked, threaded L1 fit gives the bits of the whole-array search
    `_oracle_lad`, and its L1 cost is the optimum of the LP that scipy's
    HiGHS solver finds.

    The grids hold more voxels than FAN_OUT_MIN_ELEMENTS / B, so budgets 2
    and 3 take the threaded path, and no voxel count is a multiple of
    FIT_BLOCK.  16385 voxels at 9 b-values is one voxel past a block, so
    budget 1 cuts its one range into two near-equal blocks.
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
            # noiseless curves: every pair's line is the true one up to
            # rounding, so the first pair must win the near and exact ties
            ((40, 40, 24), PAPER_BVALUES, 0.0),
            # the first half of the voxels is noisy, the second clean
            ((40, 40, 24), PAPER_BVALUES, np.repeat([[[0.05]], [[0.0]]], 20, axis=0)),
            ((5, 29, 113), NINE_BVALUES, 0.05),
        ],
        ids=["noisy", "clean", "half_noisy", "nine_b_one_voxel_past_a_block"],
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
        log_s0, adc = _oracle_lad(b, y)
        resid = (log_s0 - b.reshape(-1, 1, 1, 1) * adc) - y
        ss_tot = ((y - y.mean(axis=0)) ** 2).sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            r2 = np.where(ss_tot > 0, 1.0 - (resid**2).sum(axis=0) / ss_tot, 0.0)
        solves = []  # the (lo, hi) ranges of each whole-stack solve
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
            solves.clear()
            maps, r2_map = at_budget(budget, irls_fit_volume, series)
            np.testing.assert_array_equal(maps.log_s0.data, log_s0)
            np.testing.assert_array_equal(maps.adc.data, adc)
            np.testing.assert_array_equal(r2_map.data, r2)
            parts = min(budget, y.size // _kernels.FAN_OUT_MIN_ELEMENTS)
            assert [sorted(ranges) for ranges in solves] == [
                _kernels.near_equal_ranges(0, n_voxels, parts)
            ]
        for p in zip(*(rng.integers(0, d, 10) for d in dims)):
            curve = y[(slice(None),) + p]
            assert _l1_cost(b, curve, log_s0[p], adc[p]) <= _lp_l1_cost(b, curve) + 1e-12
        lls = at_budget(2, lls_fit, series)
        want_log_s0, want_adc = _oracle_solve(b, y)
        np.testing.assert_array_equal(lls.log_s0.data, want_log_s0)
        np.testing.assert_array_equal(lls.adc.data, want_adc)

    @pytest.mark.parametrize("n_b", [2, 3, 6, 9, 13])
    def test_fit_reaches_the_lp_optimum(self, rng, n_b):
        # b = 0, then n_b - 1 distinct multiples of 10 up to 600
        steps = np.sort(rng.choice(np.arange(1, 61), n_b - 1, replace=False))
        bvalues = (0.0, *(10.0 * steps))
        series = _noisy_series(rng, (3, 4, 5), bvalues, 0.05)
        maps, _r2 = irls_fit_volume(series)
        b = np.asarray(bvalues)
        y = signal_model.floored_log(series.stack())
        for p in np.ndindex(series.dims):
            curve = y[(slice(None),) + p]
            fit = _l1_cost(b, curve, maps.log_s0.data[p], maps.adc.data[p])
            assert fit <= _lp_l1_cost(b, curve) + 1e-12

    def test_the_first_pair_wins_an_exact_tie(self):
        # at b = 0..3 the lines through samples (0, 2), (0, 3), (1, 2) and
        # (1, 3) all cost exactly 2, and every other line costs 4
        b = np.array([0.0, 1.0, 2.0, 3.0])
        y = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        log_s0, adc = signal_model._lad(b, y)
        np.testing.assert_array_equal(log_s0, [0.0, 1.0])  # the (0, 2) lines
        np.testing.assert_array_equal(adc, [-0.5, 0.5])
        for v in range(2):
            assert _l1_cost(b, y[:, v], log_s0[v], adc[v]) == 2.0
            assert _lp_l1_cost(b, y[:, v]) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize(
        "bvalues", [PAPER_BVALUES, NINE_BVALUES, tuple(50.0 * k for k in range(13))]
    )
    def test_curve_fits_match_the_whole_array_loop(self, rng, bvalues):
        # from 8 values up numpy sums a 1-d curve pairwise, not in order;
        # both fits add a curve's rows in order, as they do a stack's
        b = np.asarray(bvalues)
        for _ in range(20):
            sig = forward_signal(0.5 + rng.random(), 1e-3 + 2e-3 * rng.random(), b)
            sig *= 1.0 + 0.05 * rng.standard_normal(b.size)
            sig[rng.integers(0, b.size)] *= 1.5
            y = signal_model.floored_log(sig)
            log_s0, adc = _oracle_lad(b, y)
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
        lad_block = signal_model._lad_block

        def fail_off_the_calling_thread(*args):
            if threading.current_thread() is not threading.main_thread():
                raised_in.append(threading.current_thread().name)
                raise DegenerateDesignError("degenerate design: injected")
            return lad_block(*args)

        monkeypatch.setattr(signal_model, "_lad_block", fail_off_the_calling_thread)
        series = _noisy_series(rng, (40, 40, 24), PAPER_BVALUES, 0.05)
        with pytest.raises(DegenerateDesignError, match="injected"):
            at_budget(2, irls_fit_volume, series)
        assert raised_in and all(name.startswith("dwimoco") for name in raised_in)

import os
import threading
import tracemalloc
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest

from dwimoco import _kernels, objective, pipeline
from dwimoco.maturity import CohortPoint
from dwimoco.objective import total_loss
from dwimoco.registration import DivergedError, InnerOptConfig
from dwimoco.signal_model import irls_fit, lls_fit, roi_mean_signals
from dwimoco.volume import (
    DimensionMismatchError,
    DisplacementField,
    EmptyRoiError,
    RoiMask,
    normalize_series,
    warp,
)

CFG = pipeline.PipelineConfig(inner=InnerOptConfig(max_inner_steps=3), max_outer_iters=2)


def small_specs(n_cases, **change):
    """Cases of 16x16x8 drawn from the default population, seed 5."""
    kwargs = dict(n_cases=n_cases, dims=(16, 16, 8), seed=5)
    return pipeline.make_cohort_case_specs(**{**kwargs, **change})


@pytest.mark.parametrize(
    "change, message",
    [
        ({"dims": (3, 3, 3)}, "roi out of bounds"),
        ({"noise_sigma": -0.1}, "noise_sigma"),
        ({"ga_range": (-5.0, 38.0)}, "ga_range must satisfy"),
        ({"ga_range": (30.0, 30.0)}, "ga_range must satisfy"),
        ({"motion_range": (3.0, 1.0)}, "motion_range must satisfy"),
        ({"sat_adc": np.nan}, "sat_adc must be finite and > 0"),
        ({"sat_alpha": -1.0}, "sat_alpha must be finite and > 0"),
        ({"adc_bio_noise": np.nan}, "adc_bio_noise must be finite and >= 0"),
    ],
    ids=[
        "roi_out_of_bounds",
        "noise_negative",
        "ga_min_negative",
        "ga_range_one_point",
        "motion_range_reversed",
        "sat_adc_nan",
        "sat_alpha_negative",
        "adc_bio_noise_nan",
    ],
)
def test_cohort_case_specs_reject_a_case_that_cannot_be_simulated(change, message):
    with pytest.raises(ValueError, match=message):
        small_specs(3, **change)


def case_ids(points):
    return [p.case_id for p in points]


def test_true_points_carry_each_spec_truth():
    specs = small_specs(3)
    study = pipeline.run_simulated_cohort(specs, CFG, workers=1)
    assert study.true_points == [
        CohortPoint(s.case_id, s.ga_weeks, s.true_adc, 1.0) for s in specs
    ]
    assert study.failures == []
    for method in pipeline.COHORT_METHODS:
        assert case_ids(study.points[method]) == [s.case_id for s in specs]


def test_diverged_method_drops_its_case_from_every_fit(monkeypatch):
    real = pipeline.optimize_fields
    diverged = []

    def diverge_once_without_model_fit(*args, **kwargs):
        alpha2 = args[4]
        if alpha2 == 0.0 and not diverged:
            diverged.append(True)
            raise DivergedError("diverged: injected", [])
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "optimize_fields", diverge_once_without_model_fit)
    study = pipeline.run_simulated_cohort(small_specs(4), CFG, workers=1)
    # cases run in case_id order with one worker, so sim000 is the one that diverged
    assert study.failures == [("sim000", "no_model_fit: diverged: injected")]
    for method in pipeline.COHORT_METHODS:
        assert case_ids(study.points[method]) == ["sim001", "sim002", "sim003"]
    assert set(study.fits) == set(pipeline.COHORT_METHODS)


def test_case_that_raises_is_recorded_and_leaves_no_fit():
    specs = small_specs(3)
    specs[1] = replace(specs[1], dims=(1, 16, 8))  # the phantom rejects it
    study = pipeline.run_simulated_cohort(specs, CFG, workers=1)
    assert [cid for cid, _ in study.failures] == ["sim001"]
    assert study.failures[0][1].startswith("ValueError(")
    for method in pipeline.COHORT_METHODS:
        assert case_ids(study.points[method]) == ["sim000", "sim002"]
    assert study.fits == {}


def test_case_with_invalid_ga_is_one_failure_not_a_crash():
    specs = small_specs(4)
    specs[1] = replace(specs[1], ga_weeks=-5.0)
    study = pipeline.run_cohort(pipeline._simulate_case, specs, CFG, workers=1)
    assert study.failures == [("sim001", "ValueError('ga must be finite and > 0, got -5.0')")]
    for method in pipeline.COHORT_METHODS:
        assert case_ids(study.points[method]) == ["sim000", "sim002", "sim003"]
    assert set(study.fits) == set(pipeline.COHORT_METHODS)


class InlineExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, runs the
    worker initializer and each task in this process, and records the
    kernels' thread budget each task ran with."""

    def __init__(self, max_workers, created, budgets, initializer, initargs):
        created.append(max_workers)
        self.budgets = budgets
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.budgets.append(_kernels._budget)
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as err:
            future.set_exception(err)
        return future


@pytest.mark.parametrize("n_cases, workers, pools", [(3, 64, [3]), (3, 2, [2]), (1, 64, [])])
def test_run_cohort_starts_no_more_workers_than_cases(monkeypatch, n_cases, workers, pools):
    # 8 CPUs: each of w workers gets 8 // w threads; one case runs here
    # with this process's budget
    budget = 8 // pools[0] if pools else 8
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setattr(_kernels, "_budget", 8)
    created, budgets = [], []
    monkeypatch.setattr(
        pipeline,
        "ProcessPoolExecutor",
        lambda max_workers, initializer, initargs: InlineExecutor(
            max_workers, created, budgets, initializer, initargs
        ),
    )
    specs = small_specs(n_cases)
    study = pipeline.run_cohort(pipeline._simulate_case, specs, CFG, workers=workers)
    assert created == pools
    assert budgets == ([budget] * n_cases if pools else [])
    assert _kernels._budget == budget
    assert study.failures == []
    for method in pipeline.COHORT_METHODS:
        assert case_ids(study.points[method]) == [s.case_id for s in specs]


def resampled_input(series, fields):
    """The normalized input warped image by image by `volume.warp`: the
    oracle of the series a run ends with."""
    normalized, _scale = normalize_series(series)
    return [warp(v, f).data for v, f in zip(normalized.volumes, fields)]


def small_case():
    """One 16x16x6 phantom with motion: (series, roi)."""
    spec = pipeline.phantom.PhantomSpec(
        dims=(16, 16, 6), noise_sigma=0.02, motion_amplitude=2.0, seed=7
    )
    _maps, roi, _clean, moved, _fields = pipeline.phantom.simulate_case(spec)
    return moved, roi


# three outer iterations; a converge window as long as the run keeps the
# ADC-convergence stop from firing
RUN_CFG = pipeline.PipelineConfig(
    inner=InnerOptConfig(max_inner_steps=4, plateau_window=0),
    max_outer_iters=3,
    converge_window=3,
)


def test_run_case_records_and_best_iteration():
    series, roi = small_case()
    result = pipeline.run_case(series, roi, RUN_CFG)
    assert len(result.records) == 3
    assert result.converged is False
    # record 0 describes the normalized input
    means = roi_mean_signals(normalize_series(series)[0], roi)
    _log_s0, raw_adc, raw_r2 = irls_fit(means, series.bvalues)
    assert result.records[0].roi_mean_adc == raw_adc
    assert result.records[0].roi_r2 == raw_r2
    assert result.best_iteration == len(result.records) - 1
    assert result.best_record is result.records[-1]
    fields_moved = any(np.any(f.data != 0.0) for f in result.best_fields)
    assert fields_moved == (result.best_iteration > 0)


def test_run_case_stops_after_a_pass_that_returns_its_starting_fields(monkeypatch):
    # some pass k finds no step better than its starting fields; without the
    # stop, every later pass repeats it and the records after k are identical
    series, roi = small_case()
    cfg = replace(RUN_CFG, max_outer_iters=6, converge_window=6)
    real = pipeline.optimize_fields
    unchanged = []  # per pass: the returned stack equals the starting stack

    def spy(moving, init, *rest):
        start = init.copy()  # the pass steps init in place
        stack, trace = real(moving, init, *rest)
        unchanged.append(np.array_equal(stack, start))
        return stack, trace

    monkeypatch.setattr(pipeline, "optimize_fields", spy)
    result = pipeline.run_case(series, roi, cfg)
    assert True in unchanged
    k = unchanged.index(True)
    assert unchanged == [False] * k + [True]
    assert len(result.records) == k + 1
    assert result.converged is True and result.failed is False


def test_run_case_rejects_an_roi_on_another_grid():
    series, roi = small_case()
    other = RoiMask(np.ones((16, 16, 5), dtype=bool))
    with pytest.raises(DimensionMismatchError, match="roi dims"):
        pipeline.run_case(series, other, RUN_CFG)
    assert issubclass(DimensionMismatchError, ValueError)


def test_run_case_rejects_an_empty_roi():
    series, _roi = small_case()
    empty = RoiMask(np.zeros(series.dims, dtype=bool))
    with pytest.raises(EmptyRoiError, match="empty ROI"):
        pipeline.run_case(series, empty, RUN_CFG)
    # existing callers catch ValueError; the objective's name still resolves
    assert issubclass(EmptyRoiError, ValueError)
    assert objective.EmptyRoiError is EmptyRoiError


def test_run_case_returns_the_last_record_state_when_r2_falls(monkeypatch):
    series, roi = small_case()
    real = pipeline._curve_stats
    calls = []

    def r2_falls_every_iteration(current, roi_mask):
        means, log_s0, adc, _r2 = real(current, roi_mask)
        calls.append(None)
        return means, log_s0, adc, 1.0 - 0.1 * len(calls)

    stack_per_pass = []
    real_optimize = pipeline.optimize_fields

    def spy(*args, **kwargs):
        stack, trace = real_optimize(*args, **kwargs)
        stack_per_pass.append(stack.copy())
        return stack, trace

    monkeypatch.setattr(pipeline, "_curve_stats", r2_falls_every_iteration)
    monkeypatch.setattr(pipeline, "optimize_fields", spy)
    result = pipeline.run_case(series, roi, RUN_CFG)
    r2 = [r.roi_r2 for r in result.records]
    assert len(r2) == 3 and r2[0] > r2[1] > r2[2] and result.converged is False
    assert result.best_iteration == 2
    assert result.best_record is result.records[-1]
    # the fields of the second, last pass, bit for bit, and the input warped by them
    assert len(stack_per_pass) == 2
    assert len(result.best_fields) == len(stack_per_pass[-1])
    for got, want in zip(result.best_fields, stack_per_pass[-1]):
        assert got.data.dtype == np.float64
        assert got.data.tobytes() == np.moveaxis(want, 0, -1).astype(np.float64).tobytes()
    assert any(np.any(f.data != 0.0) for f in result.best_fields)
    want = resampled_input(series, result.best_fields)
    for got, w in zip(result.best_series.volumes, want):
        np.testing.assert_array_equal(got.data, w)


def test_run_case_keeps_zero_fields_when_the_first_pass_diverges(monkeypatch):
    series, roi = small_case()

    def diverge(*args, **kwargs):
        raise DivergedError("diverged: injected", [])

    monkeypatch.setattr(pipeline, "optimize_fields", diverge)
    result = pipeline.run_case(series, roi, RUN_CFG)
    assert result.failed is True and result.failure_reason == "diverged: injected"
    assert len(result.records) == 1 and result.best_iteration == 0
    for f in result.best_fields:
        np.testing.assert_array_equal(f.data, 0.0)
    normalized, scale = pipeline.normalize_series(series)
    assert result.normalization_scale == scale
    for got, want in zip(result.best_series_resampled.volumes, normalized.volumes):
        np.testing.assert_array_equal(got.data, want.data)


def test_best_series_is_one_resample_of_the_normalized_input():
    series, roi = small_case()
    result = pipeline.run_case(series, roi, RUN_CFG)
    # from the second pass on, re-warping the warped series would differ
    assert result.best_iteration == 2
    want = resampled_input(series, result.best_fields)
    for got, w in zip(result.best_series.volumes, want):
        np.testing.assert_array_equal(got.data, w)


def test_best_series_resampled_is_best_series():
    series, roi = small_case()
    result = pipeline.run_case(series, roi, RUN_CFG)
    assert result.best_iteration == 2
    for got, want in zip(result.best_series_resampled.volumes, result.best_series.volumes):
        np.testing.assert_array_equal(got.data, want.data)


def test_each_pass_starts_from_the_previous_fields_against_the_input(monkeypatch):
    series, roi = small_case()
    real = pipeline.optimize_fields
    calls = []  # (moving, scale, starting stack, returned stack) per pass

    def spy(moving, init, maps, roi_mask, alpha2, cfg, scale):
        start = init.copy()
        stack, trace = real(moving, init, maps, roi_mask, alpha2, cfg, scale)
        calls.append((moving, scale, start, stack.copy()))
        return stack, trace

    monkeypatch.setattr(pipeline, "optimize_fields", spy)
    result = pipeline.run_case(series, roi, RUN_CFG)
    assert len(calls) == len(result.records) - 1 == 2
    _normalized, scale = pipeline.normalize_series(series)
    assert scale != 1.0
    # component-major (B, 3, nx, ny, nz) stacks of the working dtype
    previous = np.zeros((series.b_count, 3) + series.dims, objective.WORK_DTYPE)
    for moving, pass_scale, start, stack in calls:
        # the pass registers the input divided by its scale: the normalized input
        assert moving is series and pass_scale == scale
        assert start.dtype == previous.dtype and start.shape == previous.shape
        assert start.tobytes() == previous.tobytes()
        previous = stack
    assert previous.any()
    # the result is the last pass's stack, and the series one resample of the input by it
    for got, want in zip(result.best_fields, previous):
        assert got.data.tobytes() == np.moveaxis(want, 0, -1).astype(np.float64).tobytes()
    want = resampled_input(series, result.best_fields)
    for got, w in zip(result.best_series.volumes, want):
        assert got.data.tobytes() == w.tobytes()


@pytest.mark.parametrize("alpha2", [1000.0, 0.0])
def test_record_loss_equals_total_loss_at_zero_fields(monkeypatch, alpha2):
    series, roi = small_case()
    # 8 steps, so that both weights improve on every pass and the run makes
    # all 3 records
    inner = InnerOptConfig(max_inner_steps=8, plateau_window=0)
    cfg = replace(RUN_CFG, alpha2=alpha2, inner=inner)
    entering = []  # the normalized series entering each outer iteration
    real_lls_fit = pipeline.lls_fit

    def spy(current):
        entering.append(current)
        return real_lls_fit(current)

    monkeypatch.setattr(pipeline, "lls_fit", spy)
    result = pipeline.run_case(series, roi, cfg)
    assert len(entering) == len(result.records) == 3
    zero = [DisplacementField.zero(series.dims) for _ in series.bvalues]
    for current, rec in zip(entering, result.records):
        maps = real_lls_fit(current)
        want = total_loss(current, zero, maps, roi, alpha2)
        assert rec.loss.similarity == want.similarity
        assert rec.loss.smooth == want.smooth == 0.0
        assert rec.loss.model_fit == want.model_fit
        assert rec.loss.total == want.total
        assert rec.loss.model_fit > 0.0


def test_pipeline_config_rejects_an_alpha2_below_0_or_not_finite():
    for alpha2 in (-0.1, np.inf, np.nan):
        with pytest.raises(ValueError, match="alpha2 must be finite and >= 0"):
            pipeline.PipelineConfig(alpha2=alpha2)


def test_run_case_registers_a_one_slice_case_in_plane(one_slice_case):
    # a one-voxel axis has no differences, so the smoothness term and the
    # warp leave its displacement component at exactly 0
    series, roi = one_slice_case
    result = pipeline.run_case(series, roi, RUN_CFG)
    assert not result.failed
    assert len(result.records) == 3
    uz = np.stack([f.data[..., 2] for f in result.best_fields])
    assert not uz.any()
    in_plane = np.stack([f.data[..., :2] for f in result.best_fields])
    assert np.isfinite(in_plane).all() and in_plane.any()


def test_check_convergence_needs_window_plus_1_entries():
    assert not pipeline.check_convergence([], 1)
    assert not pipeline.check_convergence([2e-3], 1)
    assert pipeline.check_convergence([2e-3, 2e-3], 1)
    assert not pipeline.check_convergence([2e-3] * 3, 3)
    assert pipeline.check_convergence([2e-3] * 4, 3)
    # only the last `window` changes count
    assert pipeline.check_convergence([5e-3, 2e-3, 2e-3, 2e-3], 2)
    assert not pipeline.check_convergence([5e-3, 2e-3, 2e-3, 2e-3], 3)


def test_check_convergence_accepts_a_change_of_exactly_the_tolerance():
    prev = 1000.0
    step = pipeline.ADC_CHANGE_TOL * prev
    assert step == 1.0  # so prev +- step is exact
    assert pipeline.check_convergence([prev, prev + step], 1)
    assert not pipeline.check_convergence([prev, np.nextafter(prev + step, np.inf)], 1)
    # relative to the earlier value: relative to the later one, 999, a step
    # of 1 would exceed the tolerance
    assert pipeline.check_convergence([prev, prev - step], 1)
    assert not pipeline.check_convergence([prev, np.nextafter(prev - step, -np.inf)], 1)


def test_check_convergence_after_an_adc_of_zero():
    assert pipeline.check_convergence([0.0, 0.0], 1)
    assert not pipeline.check_convergence([0.0, 1e-12], 1)
    assert not pipeline.check_convergence([0.0, -1e-12], 1)


@pytest.mark.parametrize("window", [0, -1])
def test_check_convergence_rejects_a_window_below_1(window):
    with pytest.raises(ValueError, match="window"):
        pipeline.check_convergence([1.0, 1.0], window)


def test_workspace_of_the_input_and_its_scale_holds_the_normalized_images():
    series, roi = small_case()
    normalized, scale = normalize_series(series)
    maps = lls_fit(normalized)
    got = objective.Workspace(series, maps, roi, scale)
    want = objective.Workspace(normalized, maps, roi)
    assert got.moving.tobytes() == want.moving.tobytes()
    assert got.target.tobytes() == want.target.tobytes()


@pytest.mark.parametrize("budget", [1, 2])
def test_a_pass_that_diverges_after_its_total_fell_ends_the_run_at_its_best_state(
    monkeypatch, budget
):
    # at evaluation 3 of the first pass a group's gradient gets an inf, as in
    # test_non_finite_gradient_in_the_helper_range_diverges_at_the_same_step;
    # a run whose first pass stops after 2 steps reaches that pass's best
    # state without diverging, so the diverged run must end with its
    # records, maps, fields and series
    series, roi = small_case()
    monkeypatch.setattr(_kernels, "FAN_OUT_MIN_ELEMENTS", 1)  # budget 2 splits 3 + 3
    monkeypatch.setattr(_kernels, "_budget", budget)
    monkeypatch.setattr(_kernels, "GROUP_VOXELS", int(np.prod(series.dims)))  # 1 image a group
    capped = replace(RUN_CFG, inner=replace(RUN_CFG.inner, max_inner_steps=2), max_outer_iters=2)
    want = pipeline.run_case(series, roi, capped)
    assert len(want.records) == 2 and want.records[1] != want.records[0]

    real = objective._smooth_loss_grad
    lock = threading.Lock()
    calls = []  # 6 per evaluation, one per image

    def smooth_loss_grad(u, grad_out, weight, scratch, *slab):
        losses = real(u, grad_out, weight, scratch, *slab)
        with lock:
            calls.append(threading.current_thread() is not threading.main_thread())
            if len(calls) == 19:  # a group of evaluation 3
                grad_out[0, 1, 2, 3, 4] = np.inf
        return losses

    monkeypatch.setattr(objective, "_smooth_loss_grad", smooth_loss_grad)
    got = pipeline.run_case(series, roi, RUN_CFG)
    assert len(calls) == 24 and (True in calls) == (budget == 2)
    assert got.failed is True and got.converged is False
    assert got.failure_reason == "diverged: non-finite loss or gradient at step 3"
    assert got.records == want.records
    assert got.best_maps.adc.data.tobytes() == want.best_maps.adc.data.tobytes()
    assert got.best_maps.log_s0.data.tobytes() == want.best_maps.log_s0.data.tobytes()
    for g, w in zip(got.best_fields, want.best_fields):
        assert g.data.tobytes() == w.data.tobytes()
    assert any(f.data.any() for f in got.best_fields)
    resampled = resampled_input(series, got.best_fields)
    for g, w, r in zip(got.best_series.volumes, want.best_series.volumes, resampled):
        assert g.data.tobytes() == w.data.tobytes() == r.tobytes()


def test_a_run_holds_its_start_three_fields_its_workspace_and_one_image_stack():
    # through a pass the run holds the fields it carries (the pass's start),
    # the pass's best state and two moments and its workspace; no float64
    # series is held through it, so the records' series, the maps and the
    # result's float64 fields fit in one more (B, nx, ny, nz) float64 stack
    # (at 32x32x12 the stack's slack leaves about 250 KB to spare, where the
    # fixed-size numpy buffers of a float64 sum of float32 values would take
    # most of it at 20x20x8)
    spec = pipeline.phantom.PhantomSpec(
        dims=(32, 32, 12), noise_sigma=0.02, motion_amplitude=2.0, seed=7
    )
    _maps, roi, _clean, series, _fields = pipeline.phantom.simulate_case(spec)
    cfg = pipeline.PipelineConfig(
        inner=InnerOptConfig(max_inner_steps=5, plateau_window=0),
        max_outer_iters=3,
        converge_window=3,
    )
    field_bytes = series.b_count * 3 * int(np.prod(series.dims)) * 4
    stack_bytes = series.b_count * int(np.prod(series.dims)) * 8
    normalized, scale = normalize_series(series)
    maps = lls_fit(normalized)
    del normalized
    init = np.zeros((series.b_count, 3) + series.dims, objective.WORK_DTYPE)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ws = objective.Workspace(series, maps, roi, scale)
        objective.loss_and_gradient(ws, init, cfg.alpha2)
        ws_bytes = tracemalloc.get_traced_memory()[0] - before
        del ws
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = pipeline.run_case(series, roi, cfg)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(result.records) == 3 and not result.failed
    bound = 4 * field_bytes + ws_bytes + stack_bytes
    assert peak < bound, (peak, bound, field_bytes, ws_bytes, stack_bytes)

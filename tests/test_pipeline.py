import os
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest

from dwimoco import _kernels, pipeline
from dwimoco.maturity import CohortPoint
from dwimoco.objective import total_loss
from dwimoco.registration import DivergedError, InnerOptConfig
from dwimoco.signal_model import irls_fit, roi_mean_signals
from dwimoco.volume import GridTooSmallError, ScalarVolume, normalize_series

CFG = pipeline.PipelineConfig(inner=InnerOptConfig(max_inner_steps=3), max_outer_iters=2)


def small_specs(n_cases):
    return pipeline.make_cohort_case_specs(
        n_cases=n_cases,
        dims=(16, 16, 8),
        ga_range=(20.0, 38.0),
        sat_adc=3.2e-3,
        sat_alpha=0.07,
        adc_bio_noise=1.5e-4,
        noise_sigma=0.02,
        motion_range=(2.0, 4.0),
        seed=5,
    )


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
        weights = args[5]
        if weights.alpha2 == 0.0 and not diverged:
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
    assert study.failures == [("sim001", "ValueError('ga must be > 0')")]
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


def small_case():
    """One 16x16x6 phantom with motion: (series, roi)."""
    spec = pipeline.phantom.PhantomSpec(
        dims=(16, 16, 6), noise_sigma=0.02, motion_amplitude=2.0, seed=7
    )
    maps, roi = pipeline.phantom.make_phantom(spec)
    clean = pipeline.phantom.simulate_series(maps, roi, spec.bvalues, spec.noise_sigma, spec.seed)
    moved, _fields = pipeline.phantom.apply_synthetic_motion(clean, spec, spec.seed + 1)
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
    assert [r.iteration for r in result.records] == [0, 1, 2]
    assert result.converged is False
    # record 0 describes the normalized input
    means = roi_mean_signals(normalize_series(series)[0], roi)
    _log_s0, raw_adc, diag = irls_fit(means, series.bvalues)
    assert result.records[0].roi_mean_adc == raw_adc
    assert result.records[0].roi_r2 == diag.r2
    r2 = [r.roi_r2 for r in result.records]
    assert result.best_iteration == int(np.argmax(r2))
    assert result.best_record is result.records[result.best_iteration]
    fields_moved = any(np.any(f.data != 0.0) for f in result.best_fields)
    assert fields_moved == (result.best_iteration > 0)


def test_run_case_stops_after_a_pass_that_returns_its_starting_fields(monkeypatch):
    # pass 2 finds no step better than its starting fields; without the stop,
    # passes 3 and 4 repeat it and records 2-5 are identical
    series, roi = small_case()
    cfg = replace(RUN_CFG, max_outer_iters=6, converge_window=6)
    real = pipeline.optimize_fields
    unchanged = []  # per pass: returned fields equal the starting fields

    def spy(fixed, moving, init_fields, *rest):
        fields, trace = real(fixed, moving, init_fields, *rest)
        unchanged.append(all(np.array_equal(a.data, b.data) for a, b in zip(fields, init_fields)))
        return fields, trace

    monkeypatch.setattr(pipeline, "optimize_fields", spy)
    result = pipeline.run_case(series, roi, cfg)
    assert unchanged == [False, False, True]
    assert [r.iteration for r in result.records] == [0, 1, 2]
    assert result.best_iteration == 2
    assert result.converged is True and result.failed is False


def test_run_case_keeps_zero_fields_when_iteration_0_is_best(monkeypatch):
    series, roi = small_case()
    real = pipeline._curve_stats
    calls = []

    def r2_falls_every_iteration(current, roi_mask):
        means, log_s0, adc, diag = real(current, roi_mask)
        calls.append(None)
        return means, log_s0, adc, replace(diag, r2=1.0 - 0.1 * len(calls))

    monkeypatch.setattr(pipeline, "_curve_stats", r2_falls_every_iteration)
    result = pipeline.run_case(series, roi, RUN_CFG)
    assert len(result.records) == 3 and result.converged is False
    assert result.best_iteration == 0
    for f in result.best_fields:
        np.testing.assert_array_equal(f.data, 0.0)
    # the registration did move the later iterations
    assert result.records[2].roi_mean_adc != result.records[0].roi_mean_adc
    normalized, scale = pipeline.normalize_series(series)
    assert result.normalization_scale == scale
    for got, want in zip(result.best_series_resampled.volumes, normalized.volumes):
        np.testing.assert_array_equal(got.data, want.data)


def test_best_series_is_one_resample_of_the_normalized_input():
    series, roi = small_case()
    result = pipeline.run_case(series, roi, RUN_CFG)
    # from the second pass on, re-warping the warped series would differ
    assert result.best_iteration == 2
    normalized, _ = pipeline.normalize_series(series)
    want = pipeline.warp_series(normalized, result.best_fields)
    for got, w in zip(result.best_series.volumes, want.volumes):
        np.testing.assert_array_equal(got.data, w.data)


def test_best_series_resampled_is_best_series():
    series, roi = small_case()
    result = pipeline.run_case(series, roi, RUN_CFG)
    assert result.best_iteration == 2
    for got, want in zip(result.best_series_resampled.volumes, result.best_series.volumes):
        np.testing.assert_array_equal(got.data, want.data)


def test_each_pass_starts_from_the_previous_fields_against_the_input(monkeypatch):
    series, roi = small_case()
    real = pipeline.optimize_fields
    calls = []  # (moving, init_fields, returned fields) per pass

    def spy(fixed, moving, init_fields, *rest):
        fields, trace = real(fixed, moving, init_fields, *rest)
        calls.append((moving, list(init_fields), fields))
        return fields, trace

    monkeypatch.setattr(pipeline, "optimize_fields", spy)
    result = pipeline.run_case(series, roi, RUN_CFG)
    assert len(calls) == len(result.records) - 1 == 2
    normalized, _ = pipeline.normalize_series(series)
    previous = [np.zeros(series.dims + (3,)) for _ in series.bvalues]
    for moving, init_fields, fields in calls:
        for got, want in zip(moving.volumes, normalized.volumes):
            np.testing.assert_array_equal(got.data, want.data)
        for got, want in zip(init_fields, previous):
            np.testing.assert_array_equal(got.data, want)
        previous = [f.data for f in fields]
    assert any(np.any(p != 0.0) for p in previous)


@pytest.mark.parametrize("alpha2", [1000.0, 0.0])
def test_record_loss_equals_total_loss_at_zero_fields(monkeypatch, alpha2):
    series, roi = small_case()
    cfg = replace(RUN_CFG, weights=replace(RUN_CFG.weights, alpha2=alpha2))
    entering = []  # the normalized series entering each outer iteration
    real_lls_fit = pipeline.lls_fit

    def spy(current):
        entering.append(current)
        return real_lls_fit(current)

    monkeypatch.setattr(pipeline, "lls_fit", spy)
    result = pipeline.run_case(series, roi, cfg)
    assert len(entering) == len(result.records) == 3
    zero = [pipeline.DisplacementField.zero(series.dims) for _ in series.bvalues]
    for current, rec in zip(entering, result.records):
        maps = real_lls_fit(current)
        fixed = pipeline.reconstruct(maps, series.bvalues)
        want = total_loss(fixed, current, zero, maps, roi, cfg.weights)
        assert rec.loss.similarity == want.similarity
        assert rec.loss.smooth == want.smooth == 0.0
        assert rec.loss.model_fit == want.model_fit
        assert rec.loss.total == want.total
        assert rec.loss.model_fit > 0.0


def test_run_case_rejects_a_grid_with_one_voxel_along_an_axis():
    dims = (12, 12, 1)
    bvalues = (0.0, 200.0, 600.0)
    vols = tuple(ScalarVolume(np.full(dims, np.exp(-2e-3 * b))) for b in bvalues)
    mask = np.zeros(dims, dtype=bool)
    mask[4:8, 4:8, 0] = True
    with pytest.raises(GridTooSmallError, match="along z"):
        pipeline.run_case(pipeline.BValueSeries(bvalues, vols), pipeline.RoiMask(mask), RUN_CFG)

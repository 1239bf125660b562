from dataclasses import replace

import pytest

from dwimoco import pipeline
from dwimoco.maturity import CohortPoint
from dwimoco.registration import DivergedError, InnerOptConfig

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

import numpy as np
import pytest
from scipy.optimize import least_squares

from dwimoco.maturity import (
    ALPHA_GRID,
    CohortPoint,
    DegenerateCohortError,
    SaturationFit,
    fit_saturation,
    predict_adc,
)
from dwimoco.pipeline import make_cohort_case_specs

TRUE_ADC_SAT = 3.2e-3
TRUE_ALPHA = 0.07


def clean_cohort(ga_values=tuple(range(20, 39))):
    truth = SaturationFit(TRUE_ADC_SAT, TRUE_ALPHA, 1.0)
    return [
        CohortPoint(f"c{i:02d}", float(ga), predict_adc(float(ga), truth))
        for i, ga in enumerate(ga_values)
    ]


def cohort_of(ga, adc):
    return [CohortPoint(f"c{i:02d}", float(g), float(a)) for i, (g, a) in enumerate(zip(ga, adc))]


def simulated_cohort(n_cases, adc_bio_noise, seed):
    specs = make_cohort_case_specs(
        n_cases=n_cases,
        dims=(8, 8, 8),
        ga_range=(20.0, 38.0),
        sat_adc=TRUE_ADC_SAT,
        sat_alpha=TRUE_ALPHA,
        adc_bio_noise=adc_bio_noise,
        noise_sigma=0.0,
        motion_range=(0.0, 0.0),
        seed=seed,
    )
    return [CohortPoint(s.case_id, s.ga_weeks, s.true_adc) for s in specs]


class TestPredict:
    def test_zero_ga_is_zero(self):
        fit = SaturationFit(TRUE_ADC_SAT, TRUE_ALPHA, 1.0)
        assert predict_adc(0.0, fit) == 0.0

    def test_saturation_limit(self):
        fit = SaturationFit(TRUE_ADC_SAT, TRUE_ALPHA, 1.0)
        assert predict_adc(400.0, fit) == pytest.approx(TRUE_ADC_SAT, rel=1e-9)

    def test_direct_evaluation_at_30_weeks(self):
        fit = SaturationFit(3.2e-3, 0.07, 1.0)
        expected = 3.2e-3 * (1.0 - np.exp(-0.07 * 30.0))
        assert predict_adc(30.0, fit) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(2.808e-3, rel=1e-3)

    def test_monotone_and_bounded(self):
        fit = SaturationFit(TRUE_ADC_SAT, TRUE_ALPHA, 1.0)
        ga = np.linspace(1.0, 60.0, 200)
        vals = predict_adc(ga, fit)
        assert np.all(np.diff(vals) > 0)
        assert np.all(vals < TRUE_ADC_SAT)

    def test_rejects_negative_ga(self):
        with pytest.raises(ValueError):
            predict_adc(-1.0, SaturationFit(TRUE_ADC_SAT, TRUE_ALPHA, 1.0))


class TestFitSaturation:
    def test_noiseless_recovery(self):
        fit = fit_saturation(clean_cohort())
        assert fit.adc_sat == pytest.approx(TRUE_ADC_SAT, rel=1e-6)
        assert fit.alpha == pytest.approx(TRUE_ALPHA, rel=1e-6)
        assert fit.r2 == pytest.approx(1.0, abs=1e-9)
        assert not fit.flagged

    def test_refit_on_own_predictions_is_idempotent(self, rng):
        pts = clean_cohort()
        noisy = [
            CohortPoint(p.case_id, p.ga, p.adc + float(rng.normal(0, 2e-4))) for p in pts
        ]
        fit1 = fit_saturation(noisy)
        refit_pts = [
            CohortPoint(p.case_id, p.ga, predict_adc(p.ga, fit1)) for p in noisy
        ]
        fit2 = fit_saturation(refit_pts)
        assert fit2.adc_sat == pytest.approx(fit1.adc_sat, rel=1e-6)
        assert fit2.alpha == pytest.approx(fit1.alpha, rel=1e-6)
        assert fit2.r2 == pytest.approx(1.0, abs=1e-9)

    def test_scaling_cohort_scales_adc_sat_only(self, rng):
        pts = clean_cohort()
        noisy = [
            CohortPoint(p.case_id, p.ga, p.adc + float(rng.normal(0, 1e-4))) for p in pts
        ]
        fit1 = fit_saturation(noisy)
        scaled = [CohortPoint(p.case_id, p.ga, 2.5 * p.adc) for p in noisy]
        fit2 = fit_saturation(scaled)
        assert fit2.adc_sat == pytest.approx(2.5 * fit1.adc_sat, rel=1e-8)
        assert fit2.alpha == pytest.approx(fit1.alpha, rel=1e-6)
        assert fit2.r2 == pytest.approx(fit1.r2, rel=1e-9)

    def test_identical_adc_flagged_zero_r2(self):
        pts = [CohortPoint(f"c{i}", 20.0 + i, 2.5e-3) for i in range(10)]
        fit = fit_saturation(pts)
        assert fit.flagged
        assert fit.r2 == 0.0

    def test_noisy_recovery_within_ten_percent(self):
        errs = []
        for seed in range(30):
            fit = fit_saturation(simulated_cohort(38, 0.1 * TRUE_ADC_SAT, seed))
            errs.append(fit.adc_sat / TRUE_ADC_SAT - 1.0)
        assert abs(np.mean(errs)) < 0.1

    def test_no_local_solver_improves_an_inside_grid_fit(self):
        # oracle: a trust-region least-squares solver started at the fit
        # finds no lower SSE
        checked = 0
        for seed in range(30):
            pts = simulated_cohort(6 + seed, 3e-4, seed)
            fit = fit_saturation(pts)
            if fit.flagged:
                continue
            ga = np.array([p.ga for p in pts])
            adc = np.array([p.adc for p in pts])

            def resid(p):
                return p[0] * (1.0 - np.exp(-p[1] * ga)) - adc

            sse = float((resid([fit.adc_sat, fit.alpha]) ** 2).sum())
            polished = least_squares(
                resid, [fit.adc_sat, fit.alpha], x_scale="jac", xtol=1e-15, ftol=1e-15, gtol=1e-15
            )
            assert 2.0 * polished.cost >= sse * (1.0 - 1e-10), seed
            checked += 1
        assert checked >= 20

    def test_flat_cohort_stops_at_the_grid_end_and_is_flagged(self):
        ga = np.arange(20.0, 39.0)
        fit = fit_saturation(cohort_of(ga, 2.5e-3 + 1e-4 * np.sin(ga)))
        assert fit.alpha == ALPHA_GRID[-1]
        assert fit.flagged

    def test_near_linear_cohort_stops_at_the_grid_start_and_is_flagged(self):
        ga = np.arange(20.0, 39.0)
        fit = fit_saturation(cohort_of(ga, 1e-4 * ga + 2e-5 * np.cos(ga)))
        assert fit.alpha == ALPHA_GRID[0]
        assert fit.flagged

    def test_needs_three_points(self):
        with pytest.raises(DegenerateCohortError):
            fit_saturation(clean_cohort((20, 30)))

    def test_rejects_constant_ga(self):
        pts = [CohortPoint(f"c{i}", 25.0, 1e-3 * (1 + i)) for i in range(5)]
        with pytest.raises(DegenerateCohortError):
            fit_saturation(pts)

    @pytest.mark.parametrize(
        "ga", [(1e-300, 2e-300, 3e-300), (1e-14, 2e-14, 3e-14)], ids=["1e-300", "1e-14"]
    )
    def test_rejects_gas_whose_model_rounds_to_0_at_every_alpha(self, ga):
        # at the smallest alpha of the grid 1 - exp(-alpha * GA) is 0 for
        # every point, so the least-squares amplitude would be 0 / 0
        pts = [CohortPoint(f"c{i}", g, 1e-3 * (1 + i)) for i, g in enumerate(ga)]
        with pytest.raises(DegenerateCohortError, match="too small"):
            fit_saturation(pts)


class TestCohortPoint:
    def test_validates_ga(self):
        with pytest.raises(ValueError):
            CohortPoint("x", 0.0, 1e-3)

    @pytest.mark.parametrize("ga", [np.inf, np.nan])
    def test_rejects_a_ga_that_is_not_finite(self, ga):
        with pytest.raises(ValueError, match="ga must be finite"):
            CohortPoint("x", ga, 1e-3)

    def test_validates_adc_finite(self):
        with pytest.raises(ValueError):
            CohortPoint("x", 25.0, float("nan"))

"""Outer motion-compensation loop and cohort-level studies.

A case is normalized by the maximum b=0 intensity of the input.  One
iteration fits the decay model per voxel (LLS) to the current series and
optimizes the accumulated per-b-value fields, which warp the normalized
input towards the fitted maps' reconstruction, starting from the previous
iteration's fields; the next iteration's series is the normalized input
warped by those fields, so every series is one resample of the input.  The
fields go from pass to pass as the optimizer's component-major WORK_DTYPE
stack (`objective.stack_fields`), which the optimizer steps in place and
`volume.warp_series` reads as one voxel-major view per b-value image, and
become `DisplacementField`s once, for the result.  No float64 series
lives through a pass: the pass and the warp divide the caller's input by
the scale image by image, and the series of the last record is made again,
with the same bits, when the run ends on it.  The recorded per-iteration
summary ADC comes from the robust L1 fit (`signal_model.irls_fit`) of the
ROI-mean decay curve.  Iteration 0 is always the uncompensated input
state.  The loop stops at the first of: a pass that returns its starting
fields bit for bit (the fixed point, which ended every phantom-study and
simulated-cohort run measured so far), a ROI-mean ADC changed by at most
ADC_CHANGE_TOL, relative to the previous value, over converge_window
consecutive iterations, a pass that diverges (after the run records the
pass's best finite state, if it is not the pass's start), and
max_outer_iters records (the step cap).  The run's result is the state
where it stopped.

A cohort study runs three methods on every case (`analyze_methods`):
no compensation, which is record 0 of a registered run (the curve fit of
the normalized input), registration without the model-fit term, and the
full loop.  `run_cohort` is the one cohort path: it loads each case through
a caller-supplied loader (phantom simulation for `run_simulated_cohort`,
case manifests for the CLI), runs the cases in worker processes, records
failures and fits the ADC-vs-GA saturation curve per method.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import _kernels, phantom
from .maturity import (
    MIN_FIT_POINTS,
    CohortPoint,
    DegenerateCohortError,
    SaturationFit,
    fit_saturation,
    predict_adc,
)
from .objective import (
    WORK_DTYPE,
    LossBreakdown,
    model_fit_loss,
    similarity_loss,
    total_loss,  # noqa: F401  unused here; perfbench/spans.py wraps pipeline.total_loss
    unstack_fields,
)
from .registration import DivergedError, InnerOptConfig, optimize_fields
from .signal_model import ParameterMaps, irls_fit, lls_fit, reconstruct, roi_mean_signals
from .volume import (
    BValueSeries,
    DimensionMismatchError,
    EmptyRoiError,
    RoiMask,
    compose_displacements,  # noqa: F401  unused here; perfbench/spans.py wraps it
    normalize_series,
    warp_series,
)

ADC_CHANGE_TOL = 1e-3  # relative ROI-mean ADC change that counts as stable


@dataclass(frozen=True)
class PipelineConfig:
    """Outer-loop settings; defaults follow the reference hyper-parameters.
    alpha2 weighs the model-fit term; alpha2 = 0 is registration only."""

    alpha2: float = 1000.0
    inner: InnerOptConfig = InnerOptConfig()
    max_outer_iters: int = 50
    converge_window: int = 5

    def __post_init__(self):
        if not 0.0 <= self.alpha2 < np.inf:
            raise ValueError(f"alpha2 must be finite and >= 0, got {self.alpha2}")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be >= 1")
        if self.converge_window < 1:
            raise ValueError("converge_window must be >= 1")


@dataclass(frozen=True)
class CaseRecord:
    """Summary of the series state entering one outer iteration."""

    roi_mean_adc: float
    roi_r2: float
    curve_log_s0: float
    roi_mean_signals: tuple
    loss: LossBreakdown


@dataclass
class CaseResult:
    """Per-iteration trace plus the outputs of the state where the run stopped.

    The best_* names mean the final state, that of the last record:
    best_iteration is len(records) - 1 and best_record is records[-1].
    best_fields hold the displacement from the input grid to that state, and
    best_series is the normalized input warped by them: one resample of the
    input.  Intensities are in normalized units; multiply by
    normalization_scale, the input's maximum b=0 intensity, to return to
    input units.  converged is True when the run stopped because the ROI-mean
    ADC was stable or because a pass returned its starting fields unchanged.
    failed is True when a pass diverged; the last record is then that pass's
    best finite state, or the state the pass started from when no loss of
    the pass fell below its first or the error carried no state.
    """

    records: list
    best_maps: ParameterMaps
    best_fields: list
    best_series: BValueSeries
    normalization_scale: float
    converged: bool
    failed: bool = False
    failure_reason: str | None = None

    @property
    def bvalues(self) -> tuple:
        return self.best_series.bvalues

    @property
    def best_iteration(self) -> int:
        return len(self.records) - 1

    @property
    def best_record(self) -> CaseRecord:
        return self.records[-1]

    @property
    def best_series_resampled(self) -> BValueSeries:
        """best_series, which is already a single resample of the input."""
        return self.best_series


def check_convergence(adc_history, window: int) -> bool:
    """True iff the last `window` consecutive relative ADC changes are <=
    ADC_CHANGE_TOL, each relative to the earlier value.

    Needs at least window + 1 history entries to provide evidence.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    hist = [float(a) for a in adc_history]
    if len(hist) < window + 1:
        return False
    for prev, cur in zip(hist[-window - 1 : -1], hist[-window:]):
        if abs(cur - prev) > ADC_CHANGE_TOL * max(abs(prev), np.finfo(float).tiny):
            return False
    return True


def _curve_stats(series: BValueSeries, roi: RoiMask):
    means = roi_mean_signals(series, roi)
    return (means, *irls_fit(means, series.bvalues))


def _record(current: BValueSeries, roi: RoiMask, alpha2: float):
    """(maps, CaseRecord) of a series state: its LLS maps, the robust fit of
    its ROI-mean curve, and the objective at zero fields, the state entering
    a registration: similarity and model fit of the series against its own
    fit, smoothness 0."""
    maps = lls_fit(current)
    means, log_s0_c, adc_c, r2_c = _curve_stats(current, roi)
    # left unnamed, so only the pass's workspace holds a target
    sim = similarity_loss(reconstruct(maps, current.bvalues), current)
    loss0 = LossBreakdown.weighted(sim, 0.0, model_fit_loss(current, maps, roi), alpha2)
    return maps, CaseRecord(adc_c, r2_c, log_s0_c, tuple(means.tolist()), loss0)


def _fell(trace) -> bool:
    """Whether a pass's trace holds a total below its first, so the pass
    returned another state than its start."""
    return any(bd.total < trace[0].total for bd in trace[1:])


def run_case(series: BValueSeries, roi: RoiMask, cfg: PipelineConfig) -> CaseResult:
    """Run the full motion-compensation loop on one case.

    Record k describes the series state after k registration passes
    (k = 0 is the raw input), so a run capped at max_outer_iters produces at
    most max_outer_iters records and performs one fewer registration pass.
    The input is normalized by its maximum b=0 intensity
    (normalization_scale).  Each pass optimizes the accumulated fields
    against the normalized input, warm-started from the previous pass's
    fields, and the next series is the normalized input warped by them:
    one resample each.  Stops early once the ROI-mean ADC is stable
    (`check_convergence`) for converge_window consecutive iterations, or
    right after a pass that returns its starting fields, which every later
    pass would repeat (its record would duplicate the last one); a pass
    does that exactly when no total of its trace falls below the first.
    Both stops set converged.  A pass that diverges ends the run with
    failed set: its best finite state (`registration.DivergedError.state`)
    and its trace without the diverged evaluation take the place of a
    pass's result, so the state is recorded when that trace fell, and the
    run stops after that record; an error that carries no state leaves the
    fields as they were.  Whatever the stop, the result's maps, fields and
    series are those of the last record.

    Between passes the fields are carried as the optimizer's
    component-major WORK_DTYPE stack (`optimize_fields`, which steps it in
    place), and turned into DisplacementFields once, for the result.  No
    float64 series is held through a pass: neither a normalized copy of the
    caller's input, which the pass and `volume.warp_series` divide image by
    image by normalization_scale, nor the series of the last record, which
    is made again with the same bits, by one more warp, if the run stops
    with it; at zero fields that warp gives the bits of `normalize_series`
    but for the sign of a zero (`volume.warp_series`).  Each record's
    loss is the objective at zero fields (`_record`).

    Raises DimensionMismatchError for an ROI on another grid and
    EmptyRoiError for an empty ROI.
    """
    if roi.dims != series.dims:
        raise DimensionMismatchError("roi dims must match series dims")
    if roi.count == 0:
        raise EmptyRoiError("empty ROI")
    current, scale = normalize_series(series)
    stack = np.zeros((series.b_count, 3) + series.dims, WORK_DTYPE)

    records: list[CaseRecord] = []
    failure_reason = None
    converged = False

    for k in range(cfg.max_outer_iters):
        maps, record = _record(current, roi, cfg.alpha2)
        records.append(record)
        if failure_reason is not None:
            break
        if check_convergence([r.roi_mean_adc for r in records], cfg.converge_window):
            converged = True
            break
        if k == cfg.max_outer_iters - 1:
            break
        current = None
        try:
            stack, trace = optimize_fields(
                series, stack, maps, roi, cfg.alpha2, cfg.inner, scale
            )
        except DivergedError as err:
            failure_reason = str(err)
            # the diverged evaluation is not a state; an error without a
            # state leaves the fields as they were
            stack, trace = (stack, []) if err.state is None else (err.state, err.trace[:-1])
        if not _fell(trace):
            converged = failure_reason is None
            break
        current = warp_series(series, np.moveaxis(stack, 1, -1), scale)

    if current is None:
        current = warp_series(series, np.moveaxis(stack, 1, -1), scale)
    return CaseResult(
        records=records,
        best_maps=maps,
        best_fields=unstack_fields(stack),
        best_series=current,
        normalization_scale=scale,
        converged=converged,
        failed=failure_reason is not None,
        failure_reason=failure_reason,
    )


COHORT_METHODS = ("no_compensation", "no_model_fit", "full")


@dataclass(frozen=True)
class CohortCaseSpec:
    """Everything needed to simulate and analyze one cohort case."""

    case_id: str
    ga_weeks: float
    true_adc: float
    dims: tuple
    noise_sigma: float
    motion_amplitude: float
    seed: int

    def __str__(self) -> str:
        """The case id, which names the case in cohort failure records."""
        return self.case_id

    def phantom_spec(self) -> phantom.PhantomSpec:
        """The phantom of this case: its true ADC is the lung ADC, and its
        b-values are the `phantom.PhantomSpec` default."""
        return phantom.PhantomSpec(
            dims=self.dims,
            lung_adc=self.true_adc,
            noise_sigma=self.noise_sigma,
            motion_amplitude=self.motion_amplitude,
            seed=self.seed,
        )


@dataclass
class CohortStudyResult:
    """Per-method cohort points and saturation fits.

    Every method's points cover the same cases: those on which all methods
    succeeded.  failures holds one (case_id, reason) per failed method, or
    per case that could not be analyzed at all, then one ("cohort", reason)
    per method whose points admit no saturation fit.  true_points holds each
    simulated case's drawn lung ADC, empty for cases read from disk; it is
    not the clean-curve reference the phantom study and the benchmark score
    against, which differs from it by about 4.8% per case.
    """

    points: dict  # method -> list[CohortPoint]
    fits: dict  # method -> SaturationFit
    true_points: list
    failures: list


def analyze_methods(series: BValueSeries, roi: RoiMask, cfg: PipelineConfig) -> dict:
    """Run every cohort method on one case.

    Returns {method: (adc, r2, failure)}, where failure is None or the
    reason a registered method diverged.  no_model_fit is `cfg` with
    alpha2 = 0; full is `cfg` as given.  no_compensation is record 0 of the
    no_model_fit run: the curve fit of the normalized input, made before
    any registration pass.
    """
    no_model_fit = run_case(series, roi, replace(cfg, alpha2=0.0))
    full = run_case(series, roi, cfg)
    raw = no_model_fit.records[0]
    out = {"no_compensation": (raw.roi_mean_adc, raw.roi_r2, None)}
    for method, result in (("no_model_fit", no_model_fit), ("full", full)):
        rec = result.best_record
        out[method] = (rec.roi_mean_adc, rec.roi_r2, result.failure_reason)
    return out


def _analyze_source(load_case, source, cfg: PipelineConfig):
    """One cohort case: (failures, {method: CohortPoint}).

    The points exist only when every method succeeded; building them here
    puts an invalid point (a GA <= 0, a non-finite ADC) under the caller's
    per-case error guard.
    """
    case_id, ga, series, roi = load_case(source)
    out = analyze_methods(series, roi, cfg)
    failed = [(case_id, f"{m}: {why}") for m, (_, _, why) in out.items() if why is not None]
    if failed:
        return failed, {}
    return [], {m: CohortPoint(case_id, ga, adc, r2) for m, (adc, r2, _) in out.items()}


def _result_or_error(call):
    try:
        return call()
    except Exception as err:  # a cohort records a failed case and goes on
        return err


def run_cohort(load_case, sources, cfg: PipelineConfig, workers: int = 1) -> CohortStudyResult:
    """Analyze every case with all three methods and fit ADC vs GA per method.

    load_case maps one source to (case_id, ga_weeks, series, roi).  It must
    be a module-level function or a partial of one, so worker processes can
    unpickle it.  Cases run independently, in min(workers, len(sources))
    worker processes when that is more than 1, and the outputs keep the
    order of `sources`, so the result does not depend on scheduling.  Each
    worker's kernels get an equal share of this process's CPUs, at least 1
    thread, as their budget (`_kernels.fan_out_ranges`), so the workers'
    threads outnumber the CPUs only when the workers alone do.  A case that raised,
    in loading, analysis or building its cohort points, is recorded under
    str(source).  Methods with fewer than MIN_FIT_POINTS points get no fit,
    and so does a method whose points share one gestational age: it is
    recorded as ("cohort", "<method>: <reason>").
    """
    sources = list(sources)
    workers = min(workers, len(sources))
    if workers > 1:
        budget = max(1, len(os.sched_getaffinity(0)) // workers)
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_kernels.set_thread_budget, initargs=(budget,)
        ) as pool:
            futures = [pool.submit(_analyze_source, load_case, s, cfg) for s in sources]
            results = [_result_or_error(fut.result) for fut in futures]
    else:
        results = [
            _result_or_error(partial(_analyze_source, load_case, s, cfg)) for s in sources
        ]

    points = {m: [] for m in COHORT_METHODS}
    failures = []
    for source, res in zip(sources, results):
        if isinstance(res, Exception):
            failures.append((str(source), repr(res)))
            continue
        failed, case_points = res
        failures.extend(failed)
        for method, point in case_points.items():
            points[method].append(point)
    fits = {}
    for method, pts in points.items():
        if len(pts) >= MIN_FIT_POINTS:
            try:
                fits[method] = fit_saturation(pts)
            except DegenerateCohortError as err:
                failures.append(("cohort", f"{method}: {err}"))
    return CohortStudyResult(points, fits, [], failures)


def _simulate_case(spec: CohortCaseSpec):
    """Cohort case loader: the motion-corrupted phantom series of a spec."""
    _maps, roi, _clean, moved, _fields = phantom.simulate_case(spec.phantom_spec())
    return spec.case_id, spec.ga_weeks, moved, roi


def run_simulated_cohort(
    case_specs,
    cfg: PipelineConfig,
    workers: int = 1,
) -> CohortStudyResult:
    """`run_cohort` over simulated cases, ordered by case_id.

    true_points holds each spec's true ADC at its GA.
    """
    case_specs = sorted(case_specs, key=lambda s: s.case_id)
    study = run_cohort(_simulate_case, case_specs, cfg, workers)
    study.true_points = [
        CohortPoint(s.case_id, s.ga_weeks, s.true_adc, 1.0) for s in case_specs
    ]
    return study


def make_cohort_case_specs(
    n_cases: int,
    dims,
    *,
    ga_range=(20.0, 38.0),
    sat_adc: float = 3.2e-3,
    sat_alpha: float = 0.07,
    adc_bio_noise: float = 1.5e-4,
    noise_sigma: float = phantom.STUDY_NOISE_SIGMA,
    motion_range=(2.0, 4.0),
    seed: int,
):
    """Draw per-case cohort specs: GA, true lung ADC, motion amplitude.

    The true ADC follows the saturation curve plus biological scatter; the
    motion amplitude is uniform over motion_range.  Every case shares
    dims, noise_sigma and the b-values phantom.DEFAULT_BVALUES.
    Deterministic in seed.  The defaults are the simulated population of
    `dwimoco cohort`: GA uniform over 20-38 weeks, a saturation curve of
    sat_adc 3.2e-3 mm^2/s and sat_alpha 0.07 per week, a biological scatter
    (std) of 1.5e-4 mm^2/s, motion 2-4 voxels and phantom.STUDY_NOISE_SIGMA.
    Raises ValueError for n_cases < 1, a GA range not inside (0, inf) or
    not wider than a point (a saturation fit needs GA spread), a motion
    range below 0 or reversed, a sat_adc or sat_alpha not inside (0, inf),
    an adc_bio_noise not inside [0, inf) and a case whose
    `phantom.PhantomSpec` cannot be built (dims that are not three integers
    >= 2 or leave no room for the lung ROI, a noise_sigma not inside
    [0, inf)).
    """
    if n_cases < 1:
        raise ValueError(f"n_cases must be >= 1, got {n_cases}")
    for name, value in (("sat_adc", sat_adc), ("sat_alpha", sat_alpha)):
        if not 0.0 < value < np.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    if not 0.0 <= adc_bio_noise < np.inf:
        raise ValueError(f"adc_bio_noise must be finite and >= 0, got {adc_bio_noise}")
    if not 0.0 < ga_range[0] < ga_range[1] < np.inf:
        raise ValueError(f"ga_range must satisfy 0 < min < max < inf, got {ga_range}")
    if not 0.0 <= motion_range[0] <= motion_range[1] < np.inf:
        raise ValueError(f"motion_range must satisfy 0 <= min <= max < inf, got {motion_range}")
    rng = np.random.default_rng(seed)
    specs = []
    truth = SaturationFit(adc_sat=sat_adc, alpha=sat_alpha, r2=1.0)
    for i in range(n_cases):
        ga = float(rng.uniform(*ga_range))
        adc = predict_adc(ga, truth) + float(rng.normal(0.0, adc_bio_noise))
        adc = max(adc, 2e-4)
        amp = float(rng.uniform(*motion_range))
        spec = CohortCaseSpec(
            case_id=f"sim{i:03d}",
            ga_weeks=ga,
            true_adc=adc,
            dims=tuple(dims),
            noise_sigma=noise_sigma,
            motion_amplitude=amp,
            seed=int(rng.integers(0, 2**31 - 1)),
        )
        spec.phantom_spec()  # raises ValueError for a case that cannot be simulated
        specs.append(spec)
    return specs

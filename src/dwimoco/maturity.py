"""ADC-versus-gestational-age saturation model over a cohort.

The model is ADC(GA) = adc_sat * (1 - exp(-alpha * GA)): lung diffusivity
rises with gestational age and saturates.  Fitting is nonlinear in alpha
only, so a log-spaced grid over alpha (with adc_sat solved in closed form at
each grid point) locates the basin and Gauss-Newton polishes both
parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_FIT_POINTS = 3  # cohort points a saturation fit needs


class DegenerateCohortError(ValueError):
    """Too few points or no spread in gestational age."""


@dataclass(frozen=True)
class CohortPoint:
    """One case: gestational age (weeks), summary ADC, per-case fit R^2."""

    case_id: str
    ga: float
    adc: float
    fit_r2: float = 1.0

    def __post_init__(self):
        if not (self.ga > 0):
            raise ValueError("ga must be > 0")
        if not np.isfinite(self.adc):
            raise ValueError("adc must be finite")


@dataclass(frozen=True)
class SaturationFit:
    """Fitted saturation parameters.

    `flagged` marks fits whose parameters are not physiologically meaningful
    (non-positive adc_sat or alpha) or whose cohort had no ADC variance.
    """

    adc_sat: float
    alpha: float
    r2: float
    flagged: bool = False


ALPHA_GRID = np.logspace(np.log10(0.001), np.log10(1.0), 60)
GN_MAX_ITER = 100  # Gauss-Newton steps after the grid search


def predict_adc(ga, fit: SaturationFit):
    """Model ADC at gestational age `ga` (weeks); broadcasts over arrays."""
    ga = np.asarray(ga, dtype=np.float64)
    if np.any(ga < 0):
        raise ValueError("ga must be >= 0")
    out = _model(ga, fit.adc_sat, fit.alpha)
    if out.ndim == 0:
        return float(out)
    return out


def _model(ga, adc_sat, alpha):
    return adc_sat * (1.0 - np.exp(-alpha * ga))


def _sse(adc, ga, adc_sat, alpha):
    # overflow for wildly negative alpha trial steps just yields an inf SSE,
    # which the backtracking line search rejects
    with np.errstate(over="ignore", invalid="ignore"):
        r = _model(ga, adc_sat, alpha) - adc
        return float((r * r).sum())


def _gauss_newton(ga, adc, p0):
    """Damped Gauss-Newton on (adc_sat, alpha)."""
    p = np.array(p0, dtype=np.float64)
    sse = _sse(adc, ga, p[0], p[1])
    for _ in range(GN_MAX_ITER):
        a, al = p[0], p[1]
        e = np.exp(-al * ga)
        resid = _model(ga, a, al) - adc
        J = np.stack([1.0 - e, a * ga * e], axis=1)
        g = J.T @ resid
        H = J.T @ J
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            break
        # backtrack until the step reduces the SSE
        lam = 1.0
        improved = False
        for _ in range(20):
            cand = p - lam * step
            cand_sse = _sse(adc, ga, cand[0], cand[1])
            if cand_sse <= sse:
                improved = True
                break
            lam *= 0.5
        if not improved:
            break
        moved = np.max(np.abs(lam * step) / np.maximum(np.abs(p), 1e-12))
        p = cand
        sse = cand_sse
        if moved < 1e-13:
            break
    return p, sse


def fit_saturation(points) -> SaturationFit:
    """Least-squares fit of the saturation model to cohort (GA, ADC) points.

    Needs at least MIN_FIT_POINTS points with non-constant GA.  A cohort
    with zero ADC variance yields a flagged fit with r2 = 0.
    """
    pts = list(points)
    if len(pts) < MIN_FIT_POINTS:
        raise DegenerateCohortError(f"need >= {MIN_FIT_POINTS} cohort points, got {len(pts)}")
    ga = np.array([p.ga for p in pts], dtype=np.float64)
    adc = np.array([p.adc for p in pts], dtype=np.float64)
    if np.all(ga == ga[0]):
        raise DegenerateCohortError("gestational ages are all equal")

    best = None
    for alpha in ALPHA_GRID:
        g = 1.0 - np.exp(-alpha * ga)
        denom = float((g * g).sum())
        if denom <= 0:
            continue
        adc_sat = float((adc * g).sum() / denom)
        sse = _sse(adc, ga, adc_sat, alpha)
        if best is None or sse < best[0]:
            best = (sse, adc_sat, alpha)
    _, adc_sat, alpha = best

    p, sse = _gauss_newton(ga, adc, (adc_sat, alpha))
    adc_sat, alpha = (float(v) for v in p)

    ss_tot = float(((adc - adc.mean()) ** 2).sum())
    # zero ADC variance up to accumulation rounding: nothing to explain
    if ss_tot <= 1e-28 * float((adc * adc).sum()):
        return SaturationFit(adc_sat, alpha, 0.0, flagged=True)
    r2 = 1.0 - sse / ss_tot
    flagged = not (adc_sat > 0 and alpha > 0)
    return SaturationFit(adc_sat, alpha, r2, flagged=flagged)

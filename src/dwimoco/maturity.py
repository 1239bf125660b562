"""ADC-versus-gestational-age saturation model over a cohort.

The model is ADC(GA) = adc_sat * (1 - exp(-alpha * GA)): lung diffusivity
rises with gestational age and saturates.  It is linear in adc_sat, so for
each alpha the least-squares adc_sat has a closed form, and the SSE left is
a function of alpha alone (variable projection; Golub & Pereyra, SIAM J.
Numer. Anal. 1973).  The fit evaluates that SSE on ALPHA_GRID, then
searches log alpha between the grid neighbours of the best grid point,
narrowing the bracket around its best point until it is 1e-10 wide.  When
the best grid point is an end of the grid, the optimum lies outside the
searched range: the fit returns that grid point and flags it.
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
        if not 0.0 < self.ga < np.inf:
            raise ValueError(f"ga must be finite and > 0, got {self.ga}")
        if not np.isfinite(self.adc):
            raise ValueError("adc must be finite")


@dataclass(frozen=True)
class SaturationFit:
    """Fitted saturation parameters.

    `flagged` marks a fit whose parameters are not physiologically
    meaningful, for one of three causes:
    - adc_sat is not positive;
    - the cohort has no ADC variance (r2 is then 0);
    - alpha is an end of ALPHA_GRID, so the least-squares optimum lies
      outside the searched range and alpha is that end, not the optimum.
    """

    adc_sat: float
    alpha: float
    r2: float
    flagged: bool = False


ALPHA_GRID = np.logspace(np.log10(0.001), np.log10(1.0), 60)


def predict_adc(ga, fit: SaturationFit):
    """Model ADC at gestational age `ga` (weeks); broadcasts over arrays."""
    ga = np.asarray(ga, dtype=np.float64)
    if np.any(ga < 0):
        raise ValueError("ga must be >= 0")
    out = fit.adc_sat * (1.0 - np.exp(-fit.alpha * ga))
    if out.ndim == 0:
        return float(out)
    return out


def _projection(alpha, ga, adc):
    """The least-squares adc_sat at each alpha and the SSE it leaves; alpha
    is a scalar or an array, and ga and adc are 1-D."""
    g = 1.0 - np.exp(-np.multiply.outer(alpha, ga))
    adc_sat = (g @ adc) / (g * g).sum(axis=-1)
    r = adc_sat[..., None] * g - adc
    return adc_sat, (r * r).sum(axis=-1)


def fit_saturation(points) -> SaturationFit:
    """Least-squares fit of the saturation model to cohort (GA, ADC) points.

    Needs at least MIN_FIT_POINTS points with non-constant GA, not all so
    small that 1 - exp(-alpha * GA) rounds to 0 at the smallest alpha of
    ALPHA_GRID; DegenerateCohortError otherwise.  A cohort with zero ADC
    variance yields a flagged fit with r2 = 0.
    """
    pts = list(points)
    if len(pts) < MIN_FIT_POINTS:
        raise DegenerateCohortError(f"need >= {MIN_FIT_POINTS} cohort points, got {len(pts)}")
    ga = np.array([p.ga for p in pts], dtype=np.float64)
    adc = np.array([p.adc for p in pts], dtype=np.float64)
    if np.all(ga == ga[0]):
        raise DegenerateCohortError("gestational ages are all equal")
    # else the model is 0 at every point for the smallest alphas of the
    # grid, and their least-squares adc_sat is 0 / 0
    if not (1.0 - np.exp(-ALPHA_GRID[0] * ga)).any():
        raise DegenerateCohortError(
            f"gestational ages too small: 1 - exp(-{ALPHA_GRID[0]:g} * GA) "
            "rounds to 0 at every point"
        )

    k = int(np.argmin(_projection(ALPHA_GRID, ga, adc)[1]))
    at_edge = k in (0, len(ALPHA_GRID) - 1)
    alpha = ALPHA_GRID[k]
    if not at_edge:
        # zoom in on log alpha: 9 points over the bracket, then the bracket
        # of the best point's neighbours, until it is 1e-10 wide
        lo, hi = np.log(ALPHA_GRID[[k - 1, k + 1]])
        while hi - lo > 1e-10:
            t = np.linspace(lo, hi, 9)
            j = int(np.argmin(_projection(np.exp(t), ga, adc)[1]))
            lo, hi = t[max(j - 1, 0)], t[min(j + 1, 8)]
        alpha = np.exp(t[j])
    adc_sat, sse = (float(v) for v in _projection(alpha, ga, adc))
    alpha = float(alpha)

    ss_tot = float(((adc - adc.mean()) ** 2).sum())
    # zero ADC variance up to accumulation rounding: nothing to explain
    if ss_tot <= 1e-28 * float((adc * adc).sum()):
        return SaturationFit(adc_sat, alpha, 0.0, flagged=True)
    r2 = 1.0 - sse / ss_tot
    return SaturationFit(adc_sat, alpha, r2, flagged=at_edge or not adc_sat > 0)

"""Motion-compensated quantitative diffusion-weighted MRI analysis.

Estimates per-voxel mono-exponential decay parameters (ADC, S0) jointly
with per-b-value deformation fields by minimizing a loss that combines
image similarity, field smoothness, and decay-model fit quality, plus the
downstream ADC-versus-gestational-age saturation model and a phantom
simulator for end-to-end verification.
"""

from .maturity import CohortPoint, SaturationFit, fit_saturation, predict_adc
from .objective import (
    LossBreakdown,
    model_fit_loss,
    similarity_loss,
    smoothness_loss,
    total_loss,
)
from .phantom import PhantomSpec, apply_synthetic_motion, make_phantom, simulate_series
from .pipeline import CaseResult, PipelineConfig, check_convergence, run_case
from .registration import InnerOptConfig, optimize_fields
from .signal_model import (
    ParameterMaps,
    forward_signal,
    irls_fit,
    lls_fit,
    r_squared,
    reconstruct,
)
from .volume import (
    BValueSeries,
    DisplacementField,
    RoiMask,
    ScalarVolume,
    normalize_series,
    trilinear_sample,
    warp,
)

__version__ = "0.1.0"

__all__ = [
    "BValueSeries",
    "CaseResult",
    "CohortPoint",
    "DisplacementField",
    "InnerOptConfig",
    "LossBreakdown",
    "ParameterMaps",
    "PhantomSpec",
    "PipelineConfig",
    "RoiMask",
    "SaturationFit",
    "ScalarVolume",
    "apply_synthetic_motion",
    "check_convergence",
    "fit_saturation",
    "forward_signal",
    "irls_fit",
    "lls_fit",
    "make_phantom",
    "model_fit_loss",
    "normalize_series",
    "optimize_fields",
    "predict_adc",
    "r_squared",
    "reconstruct",
    "run_case",
    "similarity_loss",
    "simulate_series",
    "smoothness_loss",
    "total_loss",
    "trilinear_sample",
    "warp",
]

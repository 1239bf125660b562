"""Inner-loop optimizer: fit per-b-value displacement fields to the objective.

The fields are optimized directly (one dense 3-vector per voxel per b-value)
with a self-contained Adam implementation.  Whenever the total loss rises
relative to the previous step the learning rate is divided by a fixed factor.
The best-visited state is returned, so the final loss never exceeds the
initial one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .objective import LossWeights, loss_and_gradient
from .signal_model import ParameterMaps
from .volume import BValueSeries, DimensionMismatchError, DisplacementField, RoiMask

# Adam moment decay rates and denominator guard (Kingma & Ba, 2015 defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class InnerOptConfig:
    """Adam settings for one registration pass.

    The learning rate is in voxels per step since the parameters are raw
    displacements.  plateau_window/plateau_rel_tol stop the loop early once
    the best-seen loss stagnates; set plateau_window = 0 to disable.
    """

    learning_rate: float = 0.1
    lr_drop_factor: float = 10.0
    max_inner_steps: int = 100
    plateau_window: int = 10
    plateau_rel_tol: float = 1e-5

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 1 < self.lr_drop_factor < np.inf:
            raise ValueError(f"lr_drop_factor must be finite and > 1, got {self.lr_drop_factor}")
        if self.max_inner_steps < 0:
            raise ValueError("max_inner_steps must be >= 0")
        if self.plateau_window < 0:
            raise ValueError(f"plateau_window must be >= 0, got {self.plateau_window}")
        if not 0 <= self.plateau_rel_tol < np.inf:
            raise ValueError(
                f"plateau_rel_tol must be finite and >= 0, got {self.plateau_rel_tol}"
            )


class DivergedError(RuntimeError):
    """Non-finite loss or gradient; carries the loss trace seen so far."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


@dataclass
class AdamResult:
    x: np.ndarray
    loss: float
    trace: list
    steps: int = 0
    lr_final: float = 0.0
    lr_drops: int = 0


def adam_minimize(value_and_grad, x: np.ndarray, cfg: InnerOptConfig) -> AdamResult:
    """Minimize a scalar function of a flat parameter vector with Adam.

    x is the flat float64 starting point; Adam steps it in place, so it
    ends at the last visited state and no second copy of the start is
    kept.  value_and_grad(x) must return (loss, grad, aux); aux is recorded
    in the trace, and grad may be the same buffer on every call.  On a step
    whose loss exceeds the previous step's loss, the learning rate is
    divided by cfg.lr_drop_factor (once per offending step).  Returns the
    lowest-loss visited state.
    """
    if x.dtype != np.float64 or x.ndim != 1:
        raise ValueError(f"x must be a flat float64 array, got {x.dtype} of shape {x.shape}")
    loss, grad, aux = value_and_grad(x)
    trace = [aux]
    if not np.isfinite(loss) or not np.isfinite(grad).all():
        raise DivergedError("diverged: non-finite initial loss or gradient", trace)
    best_x = x.copy()
    best_loss = loss
    best_history = [best_loss]
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    lr = cfg.learning_rate
    lr_drops = 0
    prev_loss = loss
    steps = 0
    for t in range(1, cfg.max_inner_steps + 1):
        _kernels.adam_update(
            x, grad, m, v, lr,
            ADAM_BETA1, ADAM_BETA2, ADAM_EPS,
            1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t,
        )
        loss, grad, aux = value_and_grad(x)
        trace.append(aux)
        steps = t
        if not np.isfinite(loss) or not np.isfinite(grad).all():
            raise DivergedError(f"diverged: non-finite loss or gradient at step {t}", trace)
        if loss > prev_loss:
            lr /= cfg.lr_drop_factor
            lr_drops += 1
        if loss < best_loss:
            best_loss = loss
            best_x[:] = x
        prev_loss = loss
        best_history.append(best_loss)
        if cfg.plateau_window > 0 and t >= cfg.plateau_window:
            gain = best_history[t - cfg.plateau_window] - best_loss
            if gain <= cfg.plateau_rel_tol * max(abs(best_loss), np.finfo(float).tiny):
                break
    return AdamResult(best_x, best_loss, trace, steps, lr, lr_drops)


def optimize_fields(
    fixed: BValueSeries,
    moving: BValueSeries,
    init_fields,
    maps: ParameterMaps,
    roi: RoiMask,
    weights: LossWeights,
    cfg: InnerOptConfig,
):
    """Find per-b-value displacement fields minimizing the total loss.

    Each b-value image of `moving` is registered to the same-b image of
    `fixed`; all B fields are optimized jointly against the weighted total
    of `loss_and_gradient`, for every weight setting (alpha2 = 0 is the
    registration-only method).  init_fields are the starting fields: the
    outer loop passes the fields of its previous pass, so Adam resumes from
    them with fresh moments.  Returns (fields, trace) where trace is the
    per-step LossBreakdown list, every term unweighted, and fields is the
    best-visited state, never worse than init_fields.  Every evaluation
    writes its gradient into one buffer made here, and Adam steps the
    stacked init_fields in place, so the loop holds five arrays the size of
    all fields: the iterate, the best state, the two moments and the
    gradient.

    Raises DivergedError (with the partial trace attached) if the loss or
    gradient goes non-finite.
    """
    if fixed.dims != moving.dims:
        raise DimensionMismatchError("fixed and moving dims differ")
    init_fields = list(init_fields)
    if len(init_fields) != moving.b_count:
        raise DimensionMismatchError("need one init field per b-value")
    dims = moving.dims
    shape = (moving.b_count,) + dims + (3,)
    x = np.stack([f.data for f in init_fields]).reshape(-1)
    grad = np.empty_like(x)

    def value_and_grad(x):
        bd = loss_and_gradient(
            fixed, moving, x.reshape(shape), maps, roi, weights, grad.reshape(shape)
        )
        return bd.total, grad, bd

    res = adam_minimize(value_and_grad, x, cfg)
    best = res.x.reshape(shape)
    fields = [DisplacementField(best[i].copy()) for i in range(moving.b_count)]
    return fields, res.trace

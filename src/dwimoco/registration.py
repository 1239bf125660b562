"""Inner-loop optimizer: fit per-b-value displacement fields to the objective.

The fields are optimized directly (one dense 3-vector per voxel per b-value)
with a self-contained Adam implementation (Kingma & Ba, 2015) that takes
every step at the one learning rate LEARNING_RATE.  A step may raise the
total loss; the loop keeps the best-visited state and returns it, so the
final loss never exceeds the initial one.  Once the best-seen loss gains no
more than PLATEAU_REL_TOL of itself over a window of steps, the loop stops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .objective import Workspace, loss_and_gradient, stack_fields, unstack_fields
from .signal_model import ParameterMaps
from .volume import BValueSeries, DimensionMismatchError, RoiMask

# Adam moment decay rates and denominator guard (Kingma & Ba, 2015 defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LEARNING_RATE = 0.1  # voxels per step, since the parameters are raw displacements
PLATEAU_REL_TOL = 1e-5  # relative best-loss gain over a window that counts as a plateau


@dataclass(frozen=True)
class InnerOptConfig:
    """Adam settings for one registration pass: plateau_window stops the
    loop once the best-seen loss gains no more than PLATEAU_REL_TOL of
    itself over that many steps (0 disables the stop)."""

    max_inner_steps: int = 100
    plateau_window: int = 10

    def __post_init__(self):
        if self.max_inner_steps < 0:
            raise ValueError("max_inner_steps must be >= 0")
        if self.plateau_window < 0:
            raise ValueError(f"plateau_window must be >= 0, got {self.plateau_window}")


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
    steps: int


def adam_minimize(value_and_grad, x: np.ndarray, cfg: InnerOptConfig) -> AdamResult:
    """Minimize a scalar function of a flat parameter vector with Adam.

    x is the flat float32 or float64 starting point; Adam steps it in
    place, so it ends at the last visited state and no second copy of the
    start is kept.  The moments and the best state take x's dtype, and
    grad must have it too.  value_and_grad(x) must return (loss, grad,
    aux); aux is recorded in the trace, and grad may be the same buffer on
    every call.  Every step uses the learning rate LEARNING_RATE, also
    after a step whose loss rose.  Returns the lowest-loss visited state.
    """
    if x.dtype not in (np.float32, np.float64) or x.ndim != 1:
        raise ValueError(
            f"x must be a flat float32 or float64 array, got {x.dtype} of shape {x.shape}"
        )
    loss, grad, aux = value_and_grad(x)
    trace = [aux]
    if not np.isfinite(loss) or not np.isfinite(grad).all():
        raise DivergedError("diverged: non-finite initial loss or gradient", trace)
    best_x = x.copy()
    best_loss = loss
    best_history = [best_loss]
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    for t in range(1, cfg.max_inner_steps + 1):
        _kernels.adam_update(
            x, grad, m, v, LEARNING_RATE,
            ADAM_BETA1, ADAM_BETA2, ADAM_EPS,
            1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t,
        )
        loss, grad, aux = value_and_grad(x)
        trace.append(aux)
        if not np.isfinite(loss) or not np.isfinite(grad).all():
            raise DivergedError(f"diverged: non-finite loss or gradient at step {t}", trace)
        if loss < best_loss:
            best_loss = loss
            best_x[:] = x
        best_history.append(best_loss)
        if cfg.plateau_window > 0 and t >= cfg.plateau_window:
            gain = best_history[t - cfg.plateau_window] - best_loss
            if gain <= PLATEAU_REL_TOL * max(abs(best_loss), np.finfo(float).tiny):
                break
    return AdamResult(best_x, best_loss, trace, len(trace) - 1)


def optimize_fields(
    moving: BValueSeries,
    init_fields,
    maps: ParameterMaps,
    roi: RoiMask,
    alpha2: float,
    cfg: InnerOptConfig,
):
    """Find per-b-value displacement fields minimizing the total loss.

    Each b-value image of `moving` is registered to the same-b image of the
    maps' reconstruction; all B fields are optimized jointly against the
    weighted total of `loss_and_gradient`, for every model-fit weight alpha2
    (alpha2 = 0 is the registration-only method).  init_fields are the
    starting fields: the outer loop passes the fields of its previous pass,
    so Adam resumes from them with fresh moments.  Returns (fields, trace)
    where trace is the per-step LossBreakdown list, every term unweighted,
    and fields is the best-visited state, never worse than init_fields.  The
    iterate is one C-contiguous component-major (B, 3, nx, ny, nz) stack of
    init_fields (`objective.stack_fields`), made once here; Adam steps it in
    place, and only the best state is turned back into (nx, ny, nz, 3)
    float64 fields at the end.  Every evaluation writes its gradient into
    one buffer of the same layout, made here too, so the loop holds five
    objective.WORK_DTYPE arrays the size of all fields: the iterate, the
    best state, the two moments and the gradient.  The evaluations share
    one `objective.Workspace`, made here and dropped on return, which holds
    the target built from the maps, the stacked images and the kernels'
    scratch.

    Raises DivergedError (with the partial trace attached) if the loss or
    gradient goes non-finite.
    """
    init_fields = list(init_fields)
    if len(init_fields) != moving.b_count:
        raise DimensionMismatchError("need one init field per b-value")
    x = stack_fields(init_fields)
    shape = x.shape
    x = x.reshape(-1)
    grad = np.empty_like(x)
    ws = Workspace(moving, maps, roi)

    def value_and_grad(x):
        bd = loss_and_gradient(ws, x.reshape(shape), alpha2, grad.reshape(shape))
        return bd.total, grad, bd

    res = adam_minimize(value_and_grad, x, cfg)
    return unstack_fields(res.x.reshape(shape)), res.trace

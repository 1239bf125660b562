"""Inner-loop optimizer: fit per-b-value displacement fields to the objective.

The fields are optimized directly (one dense 3-vector per voxel per b-value)
with a self-contained Adam implementation (Kingma & Ba, 2015) that takes
every step at the one learning rate LEARNING_RATE.  A step may raise the
total loss; the loop keeps the best-visited state and returns it, so the
final loss never exceeds the initial one.  Once the best-seen loss gains no
more than PLATEAU_REL_TOL of itself over a window of steps, the loop stops.

`adam_loop` is the one loop.  It hands each evaluation the step that is
pending (`AdamStep`): the bias corrections, the moments, and whether the
previous evaluation set a new best that must be copied first.  The
registration's evaluation takes the step group by group of b-value images,
inside the per-image tasks of `objective.loss_and_gradient`, so the copy,
the step, the evaluation and the finiteness check make one trip through
each image; `adam_minimize` takes it on the whole vector before calling a
plain function.  Each element sees the same operations in the same order
either way, so both give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .objective import Workspace, loss_and_gradient
from .signal_model import ParameterMaps
from .volume import BValueSeries, RoiMask

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


# Bound at import: the registration's evaluation takes the Adam step on
# helper threads, which must not enter the names a tracer wraps in `_kernels`
# (perfbench/spans.py keeps one span stack for all threads).
_adam_update = _kernels.adam_update


@dataclass(frozen=True)
class AdamStep:
    """The Adam step t that is pending when an evaluation starts.

    m and v are the moments and bc1, bc2 the bias corrections 1 - beta^t.
    best, when set, is the best-state buffer, and the iterate is copied into
    it before the step: the previous evaluation set a new best.  The
    evaluation calls `apply` once on every flat range of the iterate, each
    just before it reads that range, with the gradient the previous
    evaluation left; the ranges may be stepped in any order and on any
    thread, since every element sees the same operations.
    """

    m: np.ndarray
    v: np.ndarray
    best: np.ndarray | None
    bc1: float
    bc2: float

    def apply(self, x, grad, lo, hi, scratch):
        """Copy x[lo:hi] into best if set, then step it by grad[lo:hi];
        scratch as `_kernels.adam_update` takes it."""
        r = slice(lo, hi)
        if self.best is not None:
            self.best[r] = x[r]
        _adam_update(
            x[r], grad[r], self.m[r], self.v[r], LEARNING_RATE,
            ADAM_BETA1, ADAM_BETA2, ADAM_EPS, self.bc1, self.bc2, scratch,
        )


def adam_minimize(value_and_grad, x: np.ndarray, cfg: InnerOptConfig) -> AdamResult:
    """Minimize a scalar function of a flat parameter vector with Adam.

    x is the flat float32 or float64 starting point; Adam steps it in
    place, so it ends at the last visited state and no second copy of the
    start is kept.  value_and_grad(x) must return (loss, grad, aux) with
    grad of x's dtype; aux is recorded in the trace, and grad may be the
    same buffer on every call.  The loop is `adam_loop`, and each pending
    step (`AdamStep`) is taken on the whole vector before the call that
    follows it.  Returns the lowest-loss visited state.
    """
    grad = None
    scratch = np.empty(2 * min(x.size, _kernels.ADAM_BLOCK), x.dtype)

    def evaluate(step):
        nonlocal grad
        if step is not None:
            step.apply(x, grad, 0, x.size, scratch)
        loss, grad, aux = value_and_grad(x)
        return loss, bool(np.isfinite(grad).all()), aux

    return adam_loop(evaluate, x, cfg)


def adam_loop(evaluate, x: np.ndarray, cfg: InnerOptConfig) -> AdamResult:
    """The Adam loop, with each step taken inside the evaluation that follows it.

    evaluate(step) takes the pending `AdamStep` on x, all of it, or nothing
    when step is None (the first evaluation), evaluates the loss and its
    gradient at the new x and returns (loss, grad_finite, aux); aux is
    recorded in the trace.  Every step uses the learning rate
    LEARNING_RATE, also after a step whose loss rose.  The moments and the
    best-state buffer take x's dtype; they are made here, on the calling
    thread, before the first step, and the moments are dropped on return.
    Since a new best is copied only before the next step, the result is x
    itself when the last evaluation was the best, and the best-state buffer
    otherwise.  The loop stops after max_inner_steps steps, or once the
    best-seen loss gains no more than PLATEAU_REL_TOL of itself over
    plateau_window steps, in both cases without taking another step.
    Raises DivergedError, with the trace so far, after an evaluation whose
    loss or gradient is not finite.
    """
    if x.dtype not in (np.float32, np.float64) or x.ndim != 1:
        raise ValueError(
            f"x must be a flat float32 or float64 array, got {x.dtype} of shape {x.shape}"
        )
    loss, finite, aux = evaluate(None)
    trace = [aux]
    if not np.isfinite(loss) or not finite:
        raise DivergedError("diverged: non-finite initial loss or gradient", trace)
    best_loss = loss
    best_t = 0  # the evaluation that set the best loss
    best_history = [best_loss]
    best = np.empty_like(x)
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    for t in range(1, cfg.max_inner_steps + 1):
        step = AdamStep(
            m, v, best if best_t == t - 1 else None, 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
        )
        loss, finite, aux = evaluate(step)
        trace.append(aux)
        if not np.isfinite(loss) or not finite:
            raise DivergedError(f"diverged: non-finite loss or gradient at step {t}", trace)
        if loss < best_loss:
            best_loss = loss
            best_t = t
        best_history.append(best_loss)
        if cfg.plateau_window > 0 and t >= cfg.plateau_window:
            gain = best_history[t - cfg.plateau_window] - best_loss
            if gain <= PLATEAU_REL_TOL * max(abs(best_loss), np.finfo(float).tiny):
                break
    steps = len(trace) - 1
    return AdamResult(x if best_t == steps else best, best_loss, trace, steps)


def optimize_fields(
    moving: BValueSeries,
    init: np.ndarray,
    maps: ParameterMaps,
    roi: RoiMask,
    alpha2: float,
    cfg: InnerOptConfig,
):
    """Find per-b-value displacement fields minimizing the total loss.

    Each b-value image of `moving` is registered to the same-b image of the
    maps' reconstruction; all B fields are optimized jointly against the
    weighted total of `loss_and_gradient`, for every model-fit weight alpha2
    (alpha2 = 0 is the registration-only method).  init holds the starting
    fields as one C-contiguous component-major (B, 3, nx, ny, nz)
    objective.WORK_DTYPE stack (`objective.stack_fields`); the outer loop
    passes the result of its previous pass, so Adam resumes from it with
    fresh moments, and init itself is left as it is.  Returns (stack,
    trace): trace is the per-step LossBreakdown list, every term
    unweighted, and stack the best-visited state in init's layout, never
    worse than init.

    The iterate is a copy of init, and every evaluation writes its gradient
    into one buffer of the same layout, made here too.  With the best state
    and the two moments of `adam_loop`, the pass holds five arrays the size
    of all fields; the moments and whichever of the iterate and the best
    state is not the result are dropped on return.  The
    evaluations share one `objective.Workspace`, made here and dropped on
    return, which holds the target built from the maps, the stacked images,
    the grid and the kernels' scratch.  Each evaluation takes the pending
    Adam step group by group of b-value images, in the thread that then
    evaluates the group (`loss_and_gradient`), so a step makes one pass
    over each image.

    Raises DimensionMismatchError for an init of the wrong shape (from the
    first evaluation), and DivergedError (with the partial trace attached)
    if the loss or gradient goes non-finite.
    """
    ws = Workspace(moving, maps, roi)
    x = init.copy()
    grad = np.empty_like(x)

    def evaluate(step):
        bd = loss_and_gradient(ws, x, alpha2, grad, step)
        return bd.total, ws.grad_finite, bd

    res = adam_loop(evaluate, x.reshape(-1), cfg)
    return res.x.reshape(ws.shape), res.trace

"""Inner-loop optimizer: fit per-b-value displacement fields to the objective.

The fields are optimized directly (one dense 3-vector per voxel per b-value)
with a self-contained Adam implementation (Kingma & Ba, 2015) that takes
every step at the one learning rate LEARNING_RATE.  A step may raise the
total loss; the loop keeps the best-visited state and returns it, so the
final loss never exceeds the initial one.  Once the best-seen loss gains no
more than PLATEAU_REL_TOL of itself over a window of steps, the loop stops.
If the loss or the gradient goes non-finite, the loop raises DivergedError
with the best finite state it visited.

`adam_loop` is the one loop.  It hands each evaluation its `AdamStep`: the
moments, the pending step's number, and whether the previous evaluation
set a new best that must be copied first.  Adam's moments are elementwise
running sums, so the registration's evaluation takes the step group by
group of b-value images, inside the per-image tasks of
`objective.loss_and_gradient`, and folds each group's gradient into the
moments as soon as it has made it: the copy, the step, the evaluation, the
finiteness check and the fold make one trip through each image, and no
whole gradient exists.  The iterate is the caller's start, stepped in
place, so a pass holds three arrays the size of all fields besides it: the
best state and the two moments.  Each element sees the same operations in
the same order on any range of images and any thread, so the pass has the
bits of a whole-vector Adam step between whole evaluations, which the
tests keep as its oracle.
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
    """Non-finite loss or gradient; carries the loss trace seen so far and
    state, the best finite state the loop visited (its start when no loss
    fell below the first)."""

    def __init__(self, message, trace, state):
        super().__init__(message)
        self.trace = trace
        self.state = state


# Bound at import: the registration's evaluation takes the Adam kernels on
# helper threads, which must not enter the names a tracer wraps in `_kernels`
# (perfbench/spans.py keeps one span stack for all threads).
_adam_moments = _kernels.adam_moments
_adam_step = _kernels.adam_step


@dataclass(frozen=True)
class AdamStep:
    """The Adam state one evaluation works with.

    t is the step pending when the evaluation starts, 0 for the first
    evaluation, which takes none.  m and v are the moments; they hold every
    gradient made before this evaluation.  best, when set, is the
    best-state buffer, into which x is copied before step t moves it: the
    previous evaluation set a new best.  The evaluation calls `apply` on
    every flat range of x just before it reads that range, and `fold` on
    the flat gradient of every range as soon as it has made it; the ranges
    may be taken in any order and on any thread, since every element sees
    the same operations.
    """

    t: int
    m: np.ndarray
    v: np.ndarray
    best: np.ndarray | None = None

    @property
    def bias_corrections(self):
        """(1 - beta1^t, 1 - beta2^t)."""
        return 1.0 - ADAM_BETA1**self.t, 1.0 - ADAM_BETA2**self.t

    def apply(self, x, lo, hi, scratch):
        """Copy x[lo:hi] into best if set, then move it by step t (nothing
        at t = 0); scratch as `_kernels.adam_step` takes it."""
        if not self.t:
            return
        r = slice(lo, hi)
        if self.best is not None:
            self.best[r] = x[r]
        _adam_step(
            x[r], self.m[r], self.v[r], LEARNING_RATE, ADAM_EPS, *self.bias_corrections, scratch
        )

    def fold(self, g, lo, hi, scratch, finite):
        """Fold g, the flat gradient of x[lo:hi], into m[lo:hi] and
        v[lo:hi], and return whether every entry of g is finite; scratch as
        `_kernels.adam_moments` takes it, finite a bool row of g.size."""
        r = slice(lo, hi)
        _adam_moments(g, self.m[r], self.v[r], ADAM_BETA1, ADAM_BETA2, scratch)
        return bool(np.isfinite(g, out=finite).all())


def adam_loop(evaluate, x: np.ndarray, cfg: InnerOptConfig):
    """The Adam loop, with each step taken inside the evaluation that follows it.

    evaluate(step) gets the `AdamStep` of every evaluation: it calls
    step.apply on every range of x before it reads that range, so the
    pending step moves all of x (nothing on the first evaluation), and
    step.fold on the gradient of every range as it makes it, and returns
    (loss, grad_finite, aux) at the new x; aux is recorded in the trace.
    `optimize_fields` does this group by group of images inside
    `objective.loss_and_gradient`; a plain function of the whole vector
    takes one range, 0..x.size, as the tests' driver does.  Every step uses
    the learning rate LEARNING_RATE, also after a step whose loss rose.  x
    is stepped in place.  The moments and the best-state buffer take x's
    dtype; they are made here, on the calling thread, before the first
    evaluation, which may fold into the moments, and the moments are
    dropped on return.  Returns (x_best, trace), x_best the lowest-loss
    visited state: since a new best is copied only before the next step,
    that is x itself when the last evaluation was the best, and the
    best-state buffer otherwise.  The loop stops after max_inner_steps
    steps, or once the best-seen loss gains no more than PLATEAU_REL_TOL of
    itself over plateau_window steps, in both cases without taking another
    step.  Raises DivergedError, with the trace so far, after an evaluation
    whose loss or gradient is not finite; it always carries a state, the
    best finite state visited: x on the first evaluation, which moved
    nothing, and the best-state buffer after a step, which holds the start
    when no loss fell below the first.
    """
    if x.dtype not in (np.float32, np.float64) or x.ndim != 1:
        raise ValueError(
            f"x must be a flat float32 or float64 array, got {x.dtype} of shape {x.shape}"
        )
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    loss, finite, aux = evaluate(AdamStep(0, m, v))
    trace = [aux]
    if not np.isfinite(loss) or not finite:
        raise DivergedError("diverged: non-finite initial loss or gradient", trace, x)
    best_loss = loss
    best_t = 0  # the evaluation that set the best loss
    best_history = [best_loss]
    best = np.empty_like(x)
    for t in range(1, cfg.max_inner_steps + 1):
        loss, finite, aux = evaluate(AdamStep(t, m, v, best if best_t == t - 1 else None))
        trace.append(aux)
        if not np.isfinite(loss) or not finite:
            raise DivergedError(f"diverged: non-finite loss or gradient at step {t}", trace, best)
        if loss < best_loss:
            best_loss = loss
            best_t = t
        best_history.append(best_loss)
        if cfg.plateau_window > 0 and t >= cfg.plateau_window:
            gain = best_history[t - cfg.plateau_window] - best_loss
            if gain <= PLATEAU_REL_TOL * max(abs(best_loss), np.finfo(float).tiny):
                break
    return (x if best_t == len(trace) - 1 else best), trace


def optimize_fields(
    moving: BValueSeries,
    init: np.ndarray,
    maps: ParameterMaps,
    roi: RoiMask,
    alpha2: float,
    cfg: InnerOptConfig,
    scale: float,
):
    """Find per-b-value displacement fields minimizing the total loss.

    Each b-value image of `moving`, divided by scale, is registered to the
    same-b image of the maps' reconstruction; `pipeline.run_case` passes
    the input and its normalization scale, so it keeps no normalized copy
    through the pass.  All B fields are optimized jointly against the
    weighted total of `loss_and_gradient`, for every model-fit weight
    alpha2 (alpha2 = 0 is the registration-only method).  init holds the
    starting fields as one C-contiguous component-major (B, 3, nx, ny, nz)
    objective.WORK_DTYPE stack (`objective.stack_fields`); the outer loop
    passes the result of its previous pass, so Adam resumes from it with
    fresh moments.  Adam steps init in place.  Returns (stack, trace):
    trace is the per-step LossBreakdown list, every term unweighted, and
    stack the best-visited state in init's layout, never worse than init:
    init itself when the last evaluation was the best, else the best-state
    buffer, which holds init's starting bits when no total fell below the
    first.

    Besides init, the pass holds three arrays the size of all fields: the
    best state and the two moments of `adam_loop`; the moments are dropped
    on return.  The evaluations share one `objective.Workspace`, made here
    and dropped on return, which holds the target built from the maps, the
    stacked images, the predicted logs on the ROI, the grid and, per thread
    range, the kernels' scratch and one kernel call's gradient, of at most
    `_kernels.GROUP_VOXELS` voxels (one slab of an image larger than that)
    at any grid.  Each
    evaluation takes the pending Adam step group by group of b-value
    images, in the thread that then evaluates the group, call by call, and
    folds each call's gradient into the moments (`loss_and_gradient`), so
    no whole gradient exists and a step makes one pass over each image.

    Raises DimensionMismatchError for an init of the wrong shape (from the
    first evaluation), and DivergedError if the loss or gradient goes
    non-finite, with the partial trace and always, as its state, the best
    finite state in init's layout (init itself if the first evaluation
    diverged).
    """
    ws = Workspace(moving, maps, roi, scale)

    def evaluate(step):
        bd = loss_and_gradient(ws, init, alpha2, None, step)
        return bd.total, ws.grad_finite, bd

    try:
        x, trace = adam_loop(evaluate, init.reshape(-1), cfg)
    except DivergedError as err:
        err.state = err.state.reshape(init.shape)
        raise
    return x.reshape(init.shape), trace

import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dwimoco import _kernels, objective, registration
from dwimoco.phantom import PhantomSpec, make_phantom, simulate_case
from dwimoco.registration import DivergedError, InnerOptConfig
from dwimoco.signal_model import ParameterMaps, lls_fit, reconstruct
from dwimoco.volume import BValueSeries, RoiMask, ScalarVolume, normalize_series


class Recorder:
    """value_and_grad wrapper that keeps every evaluated point and loss."""

    def __init__(self, loss_and_grad):
        self.loss_and_grad = loss_and_grad
        self.points = []
        self.losses = []

    def __call__(self, x):
        loss, grad = self.loss_and_grad(x)
        self.points.append(x.copy())
        self.losses.append(loss)
        return loss, grad, loss


def square(x):
    return float(x @ x), 2.0 * x


def minimize(value_and_grad, x, cfg):
    """`registration.adam_loop` on a plain function of a flat vector, driven
    as `optimize_fields` drives it: each evaluation takes the pending step
    on x through `AdamStep.apply` and folds the gradient it makes into the
    moments through `AdamStep.fold`, on one range, the whole of x.
    value_and_grad(x) returns (loss, grad, aux); returns (x_best, trace)."""
    scratch = np.empty(2 * min(x.size, _kernels.ADAM_BLOCK), x.dtype)
    finite = np.empty(x.size, bool)

    def evaluate(step):
        step.apply(x, 0, x.size, scratch)
        loss, grad, aux = value_and_grad(x)
        return loss, step.fold(grad, 0, x.size, scratch, finite), aux

    return registration.adam_loop(evaluate, x, cfg)


def rising_steps(losses):
    return sum(1 for a, b in zip(losses, losses[1:]) if b > a)


def test_returns_best_visited_state_when_last_step_is_worse(monkeypatch):
    monkeypatch.setattr(registration, "LEARNING_RATE", 1.5)
    f = Recorder(square)
    cfg = InnerOptConfig(max_inner_steps=2, plateau_window=0)
    x, trace = minimize(f, np.array([1.0]), cfg)
    # the first step overshoots to -0.5; the second moves away again
    assert len(f.losses) == 3 and f.losses[2] > f.losses[1] < f.losses[0]
    np.testing.assert_array_equal(x, f.points[1])
    assert min(trace) == f.losses[1]
    assert trace == f.losses
    assert len(trace) - 1 == 2


def textbook_adam(grad_fn, x0, lr, steps):
    """Adam as Kingma & Ba (2015) write it, one scalar at a constant rate."""
    b1, b2, eps = registration.ADAM_BETA1, registration.ADAM_BETA2, registration.ADAM_EPS
    x, m, v = x0, 0.0, 0.0
    points = [x]
    for t in range(1, steps + 1):
        g = grad_fn(x)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        x = x - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
        points.append(x)
    return points


def test_every_step_keeps_the_learning_rate_after_a_rising_step(monkeypatch):
    monkeypatch.setattr(registration, "LEARNING_RATE", 1.5)
    f = Recorder(square)
    cfg = InnerOptConfig(max_inner_steps=12, plateau_window=0)
    _x, trace = minimize(f, np.array([1.0]), cfg)
    expected = textbook_adam(lambda x: 2.0 * x, 1.0, 1.5, 12)
    # the trajectory overshoots zero again and again, so the oracle's
    # constant rate is checked on the steps that follow a rise
    assert rising_steps(f.losses) == 6
    np.testing.assert_array_equal(np.concatenate(f.points), expected)
    assert len(trace) - 1 == 12
    assert min(trace) == min(f.losses)


def test_plateau_stop_fires_after_window_steps_without_gain(monkeypatch):
    # constant unit gradient: Adam moves x by lr each step; the loss stops
    # improving once x passes 1, after step 3 from x0 = 3.5 with lr = 1
    def hinge(x):
        return float(max(x[0], 1.0)), np.ones(1)

    monkeypatch.setattr(registration, "LEARNING_RATE", 1.0)
    window = 3
    f = Recorder(hinge)
    cfg = InnerOptConfig(max_inner_steps=20, plateau_window=window)
    _x, trace = minimize(f, np.array([3.5]), cfg)
    last_gain = max(i for i in range(1, len(f.losses)) if f.losses[i] < f.losses[i - 1])
    assert last_gain == 3
    assert len(trace) - 1 == last_gain + window
    assert trace == f.losses

    _x, trace = minimize(Recorder(hinge), np.array([3.5]), replace(cfg, plateau_window=0))
    assert len(trace) - 1 == 20


@pytest.mark.parametrize("bad_eval", [0, 3], ids=["initial", "step3"])
@pytest.mark.parametrize("part", ["loss", "grad"])
def test_diverged_error_carries_every_evaluation(bad_eval, part):
    calls = []

    def value_and_grad(x):
        k = len(calls)
        calls.append(k)
        loss, grad = square(x)
        if k == bad_eval:
            if part == "loss":
                loss = np.nan
            else:
                grad = np.full_like(grad, np.inf)
        return loss, grad, k

    cfg = InnerOptConfig(max_inner_steps=10, plateau_window=0)
    with pytest.raises(DivergedError) as err:
        minimize(value_and_grad, np.array([1.0, -2.0]), cfg)
    assert err.value.trace == list(range(bad_eval + 1))
    assert calls == list(range(bad_eval + 1))


def test_diverged_error_needs_a_state():
    with pytest.raises(TypeError):
        DivergedError("diverged: injected", [])


def test_steps_the_start_in_place_and_rejects_other_layouts():
    f = Recorder(square)
    x = np.array([1.0, -2.0])
    cfg = InnerOptConfig(max_inner_steps=3, plateau_window=0)
    minimize(f, x, cfg)
    np.testing.assert_array_equal(x, f.points[-1])
    for bad in (np.array([[1.0]]), np.array([1], dtype=np.int64)):
        with pytest.raises(ValueError):
            minimize(Recorder(square), bad, cfg)


def test_steps_a_float32_start_in_place_and_keeps_its_dtype():
    # the registration's iterate is float32: the moments and the best state
    # take its dtype, and the steps are the float64 ones to float32 rounding
    cfg = InnerOptConfig(max_inner_steps=4, plateau_window=0)
    want = Recorder(square)
    minimize(want, np.array([1.0, -2.0]), cfg)
    f = Recorder(square)
    x = np.array([1.0, -2.0], dtype=np.float32)
    best, _trace = minimize(f, x, cfg)
    assert x.dtype == best.dtype == np.float32
    assert all(p.dtype == np.float32 for p in f.points)
    np.testing.assert_array_equal(x, f.points[-1])
    np.testing.assert_allclose(np.array(f.points), np.array(want.points), rtol=1e-6)


def test_evaluations_after_the_first_allocate_less_than_one_image_stack(monkeypatch):
    # the pass's workspace holds every full-size temporary of an evaluation,
    # so only the first one, which makes the scratch, allocates that much
    dims = (20, 20, 8)
    bvalues = (0.0, 50.0, 100.0, 300.0, 600.0, 900.0)
    maps, roi = make_phantom(PhantomSpec(dims=dims))
    target = reconstruct(maps, bvalues)
    factor = 0.9 + 0.05 * np.sin(np.arange(dims[0]) / 2.0)[:, None, None]
    moving = BValueSeries(bvalues, tuple(ScalarVolume(v.data * factor) for v in target.volumes))
    stack_bytes = len(bvalues) * int(np.prod(dims)) * 8  # one (B, nx, ny, nz) float64 array
    peaks = []
    evaluate = registration.loss_and_gradient

    def traced(*args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = evaluate(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return result

    monkeypatch.setattr(registration, "loss_and_gradient", traced)
    zero = np.zeros((len(bvalues), 3) + dims, objective.WORK_DTYPE)
    tracemalloc.start()
    try:
        cfg = InnerOptConfig(max_inner_steps=5, plateau_window=0)
        registration.optimize_fields(moving, zero, maps, roi, 1000.0, cfg, 1.0)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 6
    assert peaks[0] > stack_bytes  # the scratch, so the tracing sees the kernels' arrays
    assert max(peaks[1:]) < stack_bytes, peaks


def motion_case():
    """(moving, maps, roi): a 16x16x6 phantom with motion, normalized, and
    the decay maps fitted to it, as the first registration pass sees them."""
    spec = PhantomSpec(dims=(16, 16, 6), noise_sigma=0.02, motion_amplitude=2.0, seed=7)
    _maps, roi, _clean, moved, _fields = simulate_case(spec)
    moving, _scale = normalize_series(moved)
    return moving, lls_fit(moving), roi


@pytest.fixture
def at_budget(monkeypatch):
    """Run with a given thread budget and images per group; the size floor
    of the fan-out is lowered so a budget of 2 splits the 6 images 3 + 3."""
    monkeypatch.setattr(_kernels, "FAN_OUT_MIN_ELEMENTS", 1)

    def run(budget, group, n_vox, fn, *args):
        monkeypatch.setattr(_kernels, "_budget", budget)
        monkeypatch.setattr(_kernels, "GROUP_VOXELS", group * n_vox)
        return fn(*args)

    return run


def unfused_optimize(moving, init, maps, roi, alpha2, cfg, scale):
    """The registration pass as separate sweeps: an evaluation, a finiteness
    check of the whole gradient, a best-state copy and a textbook Adam step
    over the whole vector, in the order of the kernel's formula.  init is
    left alone; a DivergedError carries the best state as a copy."""
    lr, b1, b2, eps = (
        registration.LEARNING_RATE, registration.ADAM_BETA1, registration.ADAM_BETA2,
        registration.ADAM_EPS,
    )
    ws = objective.Workspace(moving, maps, roi, scale)
    x = init.copy()
    grad = np.empty_like(x)
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    bd = objective.loss_and_gradient(ws, x, alpha2, grad)
    trace = [bd]
    if not np.isfinite(bd.total) or not np.isfinite(grad).all():
        raise DivergedError("diverged: non-finite initial loss or gradient", trace, x)
    best_x, best_loss, history = x.copy(), bd.total, [bd.total]
    for t in range(1, cfg.max_inner_steps + 1):
        m = m * b1 + grad * (1.0 - b1)
        v = v * b2 + grad * (1.0 - b2) * grad
        x -= m / (1.0 - b1**t) * lr / (np.sqrt(v / (1.0 - b2**t)) + eps)
        bd = objective.loss_and_gradient(ws, x, alpha2, grad)
        trace.append(bd)
        if not np.isfinite(bd.total) or not np.isfinite(grad).all():
            raise DivergedError(
                f"diverged: non-finite loss or gradient at step {t}", trace, best_x
            )
        if bd.total < best_loss:
            best_x, best_loss = x.copy(), bd.total
        history.append(best_loss)
        w = cfg.plateau_window
        if w and t >= w and history[t - w] - best_loss <= (
            registration.PLATEAU_REL_TOL * abs(best_loss)
        ):
            break
    return best_x, trace


@pytest.mark.parametrize("budget", [1, 2])
@pytest.mark.parametrize("group", [1, 6], ids=["one_image", "all_images"])
@pytest.mark.parametrize(
    "lr, cfg, stop",
    [
        (0.1, InnerOptConfig(max_inner_steps=6, plateau_window=0), "cap_last_best"),
        (2.0, InnerOptConfig(max_inner_steps=8, plateau_window=0), "cap_last_worse"),
        (2.0, InnerOptConfig(max_inner_steps=40, plateau_window=2), "plateau"),
    ],
    ids=["cap_last_best", "cap_last_worse", "plateau"],
)
def test_optimize_fields_bits_match_the_unfused_loop(
    monkeypatch, at_budget, budget, group, lr, cfg, stop
):
    # the step taken group by group inside the evaluation, with each group's
    # gradient folded into the moments as it is made, gives the bits of an
    # evaluation followed by a whole-vector step, for the returned stack and
    # every term of every evaluation, whether the result is the last
    # iterate (the start, stepped in place) or the best-state copy
    monkeypatch.setattr(registration, "LEARNING_RATE", lr)
    moving, maps, roi = motion_case()
    n_vox = int(np.prod(moving.dims))
    init = np.random.default_rng(3).normal(0.0, 0.2, (moving.b_count, 3) + moving.dims)
    init = init.astype(objective.WORK_DTYPE)
    x = init.copy()
    args = (maps, roi, 1000.0, cfg, 1.0)
    optimize = registration.optimize_fields
    got, got_trace = at_budget(budget, group, n_vox, optimize, moving, x, *args)
    want, want_trace = at_budget(1, 1, n_vox, unfused_optimize, moving, init, *args)
    assert np.shares_memory(got, x) == (stop == "cap_last_best")
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert got_trace == want_trace
    totals = [bd.total for bd in want_trace]
    last_is_best = min(totals) == totals[-1] < totals[0]
    assert last_is_best == (stop == "cap_last_best")
    assert (len(totals) - 1 < cfg.max_inner_steps) == (stop == "plateau")


def test_non_finite_gradient_in_the_helper_range_diverges_at_the_same_step(
    monkeypatch, at_budget
):
    # at evaluation 3 the helper thread writes an inf into the gradient of
    # one of its images; the loss stays finite, so only the per-group check
    # can see it
    moving, maps, roi = motion_case()
    n_vox = int(np.prod(moving.dims))
    real = objective._smooth_loss_grad
    lock = threading.Lock()
    on_helper = []  # per call, 6 per evaluation: whether a helper thread made it

    def smooth_loss_grad(u, grad_out, weight, scratch, *slab):
        losses = real(u, grad_out, weight, scratch, *slab)
        with lock:
            on_helper.append(threading.current_thread() is not threading.main_thread())
            if len(on_helper) > 18 and on_helper[18:].count(True) == 1 and on_helper[-1]:
                grad_out[0, 1, 2, 3, 4] = np.inf
        return losses

    monkeypatch.setattr(objective, "_smooth_loss_grad", smooth_loss_grad)
    init = np.zeros((moving.b_count, 3) + moving.dims, objective.WORK_DTYPE)
    cfg = InnerOptConfig(max_inner_steps=10, plateau_window=0)
    errors = []
    for fn in (registration.optimize_fields, unfused_optimize):
        on_helper.clear()
        with pytest.raises(DivergedError) as err:
            at_budget(2, 1, n_vox, fn, moving, init.copy(), maps, roi, 1000.0, cfg, 1.0)
        errors.append(err.value)
        assert len(on_helper) == 24 and on_helper[18:].count(True) == 3
    got, want = errors
    assert str(got) == str(want) == "diverged: non-finite loss or gradient at step 3"
    assert got.trace == want.trace and len(got.trace) == 4
    assert np.isfinite(got.trace[-1].total)
    # the error hands back the best finite state, in the stack's layout
    assert got.state.shape == init.shape and got.state.tobytes() == want.state.tobytes()


def test_a_pass_holds_three_field_sized_arrays_besides_its_start_and_workspace():
    # the best state and the two moments: the start is stepped in place and
    # each group's gradient lives in the workspace until it is folded into
    # the moments; the per-evaluation temporaries stay under one (B, nx, ny,
    # nz) float64 stack, as
    # test_evaluations_after_the_first_allocate_less_than_one_image_stack
    # pins, so a fourth field-sized array would not fit
    dims = (20, 20, 8)
    spec = PhantomSpec(dims=dims, noise_sigma=0.02, motion_amplitude=2.0, seed=7)
    _maps, roi, _clean, moved, _fields = simulate_case(spec)
    moving, _scale = normalize_series(moved)
    maps = lls_fit(moving)
    init = np.zeros((moving.b_count, 3) + dims, objective.WORK_DTYPE)
    field_bytes = init.nbytes
    stack_bytes = moving.b_count * int(np.prod(dims)) * 8
    assert stack_bytes < field_bytes
    cfg = InnerOptConfig(max_inner_steps=5, plateau_window=0)
    tracemalloc.start()
    try:
        # the workspace as the pass holds it: after one evaluation, which
        # makes the scratch and the group gradients
        before = tracemalloc.get_traced_memory()[0]
        ws = objective.Workspace(moving, maps, roi)
        objective.loss_and_gradient(ws, init, 1000.0)
        ws_bytes = tracemalloc.get_traced_memory()[0] - before
        del ws
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        stack, _trace = registration.optimize_fields(moving, init, maps, roi, 1000.0, cfg, 1.0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert stack.any()
    assert 3 * field_bytes + ws_bytes <= peak < 3 * field_bytes + ws_bytes + stack_bytes, (
        peak, field_bytes, ws_bytes,
    )


def test_a_workspace_holds_one_slab_sized_scratch_per_thread_range(monkeypatch):
    # 96x96x16 is three slabs of 32 x-planes an image, so each of the two
    # thread ranges works in a scratch of at most GROUP_VOXELS voxels: 13
    # value rows, the index, 3 flags and the gradient's 3 components per
    # voxel, 3 value rows and 2 flags per ROI voxel and the carry rows of
    # 11 sums.  Scratches of one image a range would take more than twice
    # that.  Besides the target, images and grid, the workspace shares the
    # ROI's flat indices and the (B, ROI voxels) predicted logs.
    monkeypatch.setattr(_kernels, "_budget", 2)
    dims = (96, 96, 16)
    assert len(_kernels.slabs(dims)) == 3
    bvalues = (0.0, 50.0, 100.0, 300.0, 600.0, 900.0)
    rng = np.random.default_rng(5)
    maps = ParameterMaps(
        ScalarVolume(rng.normal(0.0, 0.1, dims)), ScalarVolume(rng.uniform(0.0, 3e-3, dims))
    )
    images = tuple(ScalarVolume(rng.uniform(0.5, 1.0, dims)) for _ in bvalues)
    moving = BValueSeries(bvalues, images)
    roi = RoiMask(rng.random(dims) < 0.1)
    init = np.zeros((len(bvalues), 3) + dims, objective.WORK_DTYPE)
    assert len(_kernels.thread_ranges(len(bvalues), init.size)) == 2
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ws = objective.Workspace(moving, maps, roi)
        objective.loss_and_gradient(ws, init, 1000.0)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    size = init.itemsize
    block = (
        _kernels.GROUP_VOXELS * (16 * size + 8 + 3)
        + roi.count * (3 * size + 2)
        + 11 * _kernels.SUM_BLOCK * size
    )
    shared = ws.target.nbytes + ws.moving.nbytes + ws.grid.nbytes
    shared += roi.count * (8 + len(bvalues) * size)
    assert shared < held <= shared + 2 * block, (held, shared, block)

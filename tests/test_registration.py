import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dwimoco import registration
from dwimoco.phantom import PhantomSpec, make_phantom
from dwimoco.registration import DivergedError, InnerOptConfig, adam_minimize
from dwimoco.signal_model import reconstruct
from dwimoco.volume import BValueSeries, DisplacementField, ScalarVolume


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


def rising_steps(losses):
    return sum(1 for a, b in zip(losses, losses[1:]) if b > a)


def test_returns_best_visited_state_when_last_step_is_worse(monkeypatch):
    monkeypatch.setattr(registration, "LEARNING_RATE", 1.5)
    f = Recorder(square)
    cfg = InnerOptConfig(max_inner_steps=2, plateau_window=0)
    res = adam_minimize(f, np.array([1.0]), cfg)
    # the first step overshoots to -0.5; the second moves away again
    assert len(f.losses) == 3 and f.losses[2] > f.losses[1] < f.losses[0]
    np.testing.assert_array_equal(res.x, f.points[1])
    assert res.loss == f.losses[1]
    assert res.trace == f.losses
    assert res.steps == 2


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
    res = adam_minimize(f, np.array([1.0]), cfg)
    expected = textbook_adam(lambda x: 2.0 * x, 1.0, 1.5, 12)
    # the trajectory overshoots zero again and again, so the oracle's
    # constant rate is checked on the steps that follow a rise
    assert rising_steps(f.losses) == 6
    np.testing.assert_array_equal(np.concatenate(f.points), expected)
    assert res.steps == 12
    assert res.loss == min(f.losses)


def test_plateau_stop_fires_after_window_steps_without_gain(monkeypatch):
    # constant unit gradient: Adam moves x by lr each step; the loss stops
    # improving once x passes 1, after step 3 from x0 = 3.5 with lr = 1
    def hinge(x):
        return float(max(x[0], 1.0)), np.ones(1)

    monkeypatch.setattr(registration, "LEARNING_RATE", 1.0)
    window = 3
    f = Recorder(hinge)
    cfg = InnerOptConfig(max_inner_steps=20, plateau_window=window)
    res = adam_minimize(f, np.array([3.5]), cfg)
    last_gain = max(i for i in range(1, len(f.losses)) if f.losses[i] < f.losses[i - 1])
    assert last_gain == 3
    assert res.steps == last_gain + window
    assert len(res.trace) == res.steps + 1

    res = adam_minimize(Recorder(hinge), np.array([3.5]), replace(cfg, plateau_window=0))
    assert res.steps == 20


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
        adam_minimize(value_and_grad, np.array([1.0, -2.0]), cfg)
    assert err.value.trace == list(range(bad_eval + 1))
    assert calls == list(range(bad_eval + 1))


def test_steps_the_start_in_place_and_rejects_other_layouts():
    f = Recorder(square)
    x = np.array([1.0, -2.0])
    cfg = InnerOptConfig(max_inner_steps=3, plateau_window=0)
    adam_minimize(f, x, cfg)
    np.testing.assert_array_equal(x, f.points[-1])
    for bad in (np.array([[1.0]]), np.array([1], dtype=np.int64)):
        with pytest.raises(ValueError):
            adam_minimize(Recorder(square), bad, cfg)


def test_steps_a_float32_start_in_place_and_keeps_its_dtype():
    # the registration's iterate is float32: the moments and the best state
    # take its dtype, and the steps are the float64 ones to float32 rounding
    cfg = InnerOptConfig(max_inner_steps=4, plateau_window=0)
    want = Recorder(square)
    adam_minimize(want, np.array([1.0, -2.0]), cfg)
    f = Recorder(square)
    x = np.array([1.0, -2.0], dtype=np.float32)
    res = adam_minimize(f, x, cfg)
    assert x.dtype == res.x.dtype == np.float32
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
    zero = [DisplacementField.zero(dims)] * len(bvalues)
    tracemalloc.start()
    try:
        cfg = InnerOptConfig(max_inner_steps=5, plateau_window=0)
        registration.optimize_fields(moving, zero, maps, roi, 1000.0, cfg)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 6
    assert peaks[0] > stack_bytes  # the scratch, so the tracing sees the kernels' arrays
    assert max(peaks[1:]) < stack_bytes, peaks

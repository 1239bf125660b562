from dataclasses import replace

import numpy as np
import pytest

from dwimoco.registration import DivergedError, InnerOptConfig, adam_minimize


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


def test_returns_best_visited_state_when_last_step_is_worse():
    f = Recorder(square)
    cfg = InnerOptConfig(learning_rate=1.5, max_inner_steps=2, plateau_window=0)
    res = adam_minimize(f, np.array([1.0]), cfg)
    # the first step overshoots to -0.5; the second moves away again
    assert len(f.losses) == 3 and f.losses[2] > f.losses[1] < f.losses[0]
    np.testing.assert_array_equal(res.x, f.points[1])
    assert res.loss == f.losses[1]
    assert res.trace == f.losses
    assert res.steps == 2


def test_learning_rate_drops_once_per_rising_step():
    f = Recorder(square)
    cfg = InnerOptConfig(
        learning_rate=1.5, lr_drop_factor=2.0, max_inner_steps=12, plateau_window=0
    )
    res = adam_minimize(f, np.array([1.0]), cfg)
    rises = rising_steps(f.losses)
    # steps that are worse than the best but better than the previous one
    # do not count, so this trajectory drops 4 times, not once per worse step
    assert rises == 4
    assert sum(1 for loss in f.losses[1:] if loss > min(f.losses)) > rises
    assert res.lr_drops == rises
    assert res.lr_final == 1.5 / 2.0**rises
    assert res.loss == min(f.losses)


def test_plateau_stop_fires_after_window_steps_without_gain():
    # constant unit gradient: Adam moves x by lr each step; the loss stops
    # improving once x passes 1, after step 3 from x0 = 3.5 with lr = 1
    def hinge(x):
        return float(max(x[0], 1.0)), np.ones(1)

    window = 3
    f = Recorder(hinge)
    cfg = InnerOptConfig(learning_rate=1.0, max_inner_steps=20, plateau_window=window)
    res = adam_minimize(f, np.array([3.5]), cfg)
    last_gain = max(i for i in range(1, len(f.losses)) if f.losses[i] < f.losses[i - 1])
    assert last_gain == 3
    assert res.steps == last_gain + window
    assert len(res.trace) == res.steps + 1
    assert res.lr_drops == 0

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

    cfg = InnerOptConfig(learning_rate=0.1, max_inner_steps=10, plateau_window=0)
    with pytest.raises(DivergedError) as err:
        adam_minimize(value_and_grad, np.array([1.0, -2.0]), cfg)
    assert err.value.trace == list(range(bad_eval + 1))
    assert calls == list(range(bad_eval + 1))


def test_steps_the_start_in_place_and_rejects_other_layouts():
    f = Recorder(square)
    x = np.array([1.0, -2.0])
    cfg = InnerOptConfig(learning_rate=0.1, max_inner_steps=3, plateau_window=0)
    adam_minimize(f, x, cfg)
    np.testing.assert_array_equal(x, f.points[-1])
    for bad in (np.array([[1.0]]), np.array([1], dtype=np.int64)):
        with pytest.raises(ValueError):
            adam_minimize(Recorder(square), bad, cfg)

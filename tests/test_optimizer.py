import math

import numpy as np
import pytest

from backflow.errors import NanGuardError
from backflow.optimizer import (
    OptimizerConfig,
    amplification_factor,
    causal_break,
    step,
)


def test_plain_sgd_limit():
    params = np.array([1.0, -2.0, 0.5])
    grad = np.array([0.1, 0.2, -0.3])
    config = OptimizerConfig(lr=0.5, momentum=0.0, weight_decay=0.0, clip_norm=None)
    new_params, velocity = step(params, np.zeros(3), grad, config)
    assert np.allclose(new_params, params - 0.5 * grad, atol=1e-15)
    assert np.array_equal(velocity, grad)
    assert np.array_equal(params, [1.0, -2.0, 0.5])  # inputs untouched


def test_momentum_decay_from_seeded_buffer():
    # zero gradient for k steps: displacement = -lr * v0 * sum_{t=1}^{k} mu^t
    mu, lr, k = 0.9, 0.1, 7
    v0 = np.array([2.0, -1.0])
    config = OptimizerConfig(lr=lr, momentum=mu)
    params = np.zeros(2)
    velocity = v0.copy()
    for _ in range(k):
        params, velocity = step(params, velocity, np.zeros(2), config)
    expected = -lr * v0 * sum(mu**t for t in range(1, k + 1))
    assert np.allclose(params, expected, atol=1e-12)


def test_momentum_telescoping_against_simulation():
    # constant gradient from a zero buffer: displacement telescopes through
    # the partial geometric sums
    mu, lr, k = 0.95, 0.03, 9
    g = np.array([0.4, -0.2, 0.1])
    config = OptimizerConfig(lr=lr, momentum=mu)
    params = np.zeros(3)
    velocity = np.zeros(3)
    for _ in range(k):
        params, velocity = step(params, velocity, g, config)
    expected = -lr * g * sum(amplification_factor(mu, t) for t in range(1, k + 1))
    assert np.allclose(params, expected, atol=1e-10)


def test_clipping_normalizes_gradient_norm():
    grad = np.full(4, 5.0)  # norm 10
    assert np.linalg.norm(grad) == pytest.approx(10.0)
    config = OptimizerConfig(lr=1.0, clip_norm=1.0)
    new_params, velocity = step(np.zeros(4), np.zeros(4), grad, config)
    assert np.linalg.norm(velocity) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(new_params) == pytest.approx(1.0, abs=1e-12)


def test_clip_inactive_below_threshold():
    grad = np.array([0.3, 0.0])
    config = OptimizerConfig(lr=1.0, clip_norm=1.0)
    _, velocity = step(np.zeros(2), np.zeros(2), grad, config)
    assert np.array_equal(velocity, grad)


def test_weight_decay_enters_before_clip():
    params = np.array([10.0, 0.0])
    config = OptimizerConfig(lr=1.0, weight_decay=1.0, clip_norm=1.0)
    # g = grad + params = (10, 0) with norm 10, clipped to norm 1
    _, velocity = step(params, np.zeros(2), np.zeros(2), config)
    assert np.allclose(velocity, [1.0, 0.0], atol=1e-12)


def test_causal_break_zeroes_and_is_idempotent():
    velocity = np.array([1.0, 2.0])
    broken = causal_break(velocity)
    assert np.array_equal(broken, np.zeros(2))
    assert np.array_equal(causal_break(broken), np.zeros(2))
    assert np.array_equal(velocity, [1.0, 2.0])  # original untouched


def test_first_step_after_break_is_momentum_free():
    grad = np.array([0.5, -0.5])
    params = np.array([1.0, 1.0])
    high = OptimizerConfig(lr=0.1, momentum=0.99)
    zero = OptimizerConfig(lr=0.1, momentum=0.0)
    broken = causal_break(np.array([4.0, 4.0]))
    p_high, _ = step(params, broken, grad, high)
    p_zero, _ = step(params, np.zeros(2), grad, zero)
    assert np.array_equal(p_high, p_zero)


def test_momentum_free_steps_commute():
    rng = np.random.default_rng(0)
    g1, g2 = rng.normal(size=(2, 3))
    config = OptimizerConfig(lr=0.2, momentum=0.0)
    p = rng.normal(size=3)
    a, v = step(p, np.zeros(3), g1, config)
    a, _ = step(a, v, g2, config)
    b, v = step(p, np.zeros(3), g2, config)
    b, _ = step(b, v, g1, config)
    assert np.allclose(a, b, atol=1e-15)


def test_amplification_factor_values():
    assert amplification_factor(0.0, 5) == 1.0
    assert amplification_factor(0.9, 3) == pytest.approx(2.71, abs=1e-12)
    # independent oracle: explicit partial geometric sums
    for mu in (0.5, 0.9, 0.95, 0.99):
        for k in (1, 2, 6, 10):
            expected = math.fsum(mu**i for i in range(k))
            assert amplification_factor(mu, k) == pytest.approx(expected, abs=1e-12)


def test_amplification_factor_validation():
    with pytest.raises(ValueError):
        amplification_factor(1.0, 3)
    with pytest.raises(ValueError):
        amplification_factor(0.5, 0)


def test_config_validation():
    with pytest.raises(ValueError, match="lr"):
        OptimizerConfig(lr=0.0)
    with pytest.raises(ValueError, match="momentum"):
        OptimizerConfig(lr=0.1, momentum=1.0)
    with pytest.raises(ValueError, match="weight_decay"):
        OptimizerConfig(lr=0.1, weight_decay=-1.0)
    with pytest.raises(ValueError, match="clip_norm"):
        OptimizerConfig(lr=0.1, clip_norm=0.0)


def test_nan_guard_on_bad_gradient():
    # no finiteness scan of its own: the norm check or the update check catches each gradient
    bad = ([np.nan, 0.0], [np.inf, 0.0], [-np.inf, 0.0], [np.inf, -np.inf])
    for grad in bad:
        for momentum in (0.0, 0.9):
            for clip_norm in (None, 1.0):
                config = OptimizerConfig(lr=0.1, momentum=momentum, clip_norm=clip_norm)
                with pytest.raises(NanGuardError):
                    step(np.zeros(2), np.ones(2), np.array(grad), config)


def test_nan_guard_on_overflowing_update():
    config = OptimizerConfig(lr=1e308)
    with pytest.raises(NanGuardError):
        step(np.zeros(2), np.zeros(2), np.array([1e5, 0.0]), config)


def test_shape_mismatch():
    config = OptimizerConfig(lr=0.1)
    with pytest.raises(ValueError, match="shape"):
        step(np.zeros(2), np.zeros(3), np.zeros(2), config)


def test_stacked_step_clips_each_row_like_an_unstacked_step():
    rng = np.random.default_rng(0)
    params = rng.normal(size=(3, 5))
    velocity = rng.normal(size=(3, 5))
    grad = rng.normal(size=(3, 5)) * np.array([[0.01], [10.0], [1.0]])  # one row below the clip norm
    config = OptimizerConfig(lr=0.1, momentum=0.9, weight_decay=1e-3, clip_norm=1.0)
    new_params, new_velocity = step(params, velocity, grad, config)
    for r in range(3):
        row_params, row_velocity = step(params[r], velocity[r], grad[r], config)
        assert np.array_equal(new_params[r], row_params)
        assert np.array_equal(new_velocity[r], row_velocity)


def test_step_leaves_its_inputs_and_matches_the_out_of_place_rule():
    rng = np.random.default_rng(1)
    params, velocity = rng.normal(size=(2, 3, 5))
    grad = rng.normal(size=(3, 5)) * np.array([[0.01], [10.0], [1.0]])  # one row below the clip norm
    inputs = [params, velocity, grad]
    copies = [a.copy() for a in inputs]
    config = OptimizerConfig(lr=0.1, momentum=0.9, weight_decay=1e-3, clip_norm=1.0)
    new_params, new_velocity = step(params, velocity, grad, config)
    assert all(np.array_equal(a, c) for a, c in zip(inputs, copies))
    assert not any(np.shares_memory(out, a) for out in (new_params, new_velocity) for a in inputs)
    assert not np.shares_memory(new_params, new_velocity)
    g = grad + config.weight_decay * params
    g = g * (config.clip_norm / np.maximum(np.sqrt(np.vecdot(g, g))[:, None], config.clip_norm))
    expected_velocity = config.momentum * velocity + g
    assert np.array_equal(new_velocity, expected_velocity)
    assert np.array_equal(new_params, params - config.lr * expected_velocity)


def test_overflowing_gradient_norm_trips_guard():
    # finite entries whose squared norm overflows used to be scaled to exactly zero
    config = OptimizerConfig(lr=0.1, clip_norm=1.0)
    grad = np.array([1e200, 0.0])
    with pytest.raises(NanGuardError, match="norm"):
        step(np.zeros(2), np.zeros(2), grad, config)
    with pytest.raises(NanGuardError, match="norm"):
        step(np.zeros((2, 2)), np.zeros((2, 2)), np.stack([grad[::-1] * 1e-200, grad]), config)

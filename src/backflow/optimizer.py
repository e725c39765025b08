"""SGD with momentum, per-step weight decay, and global-norm gradient clipping.

The optimizer state is one plain array, the momentum buffer ("velocity"),
and it is the memory the harness probes: ``step`` maps ``(params,
velocity)`` to their successors, and ``causal_break`` zeroes the buffer
while leaving parameters untouched, severing the only channel by which the
first instrument's history can reach the second one through the optimizer.

Update rule (buffer-form heavy ball):

    g = clip(grad + weight_decay * params)
    velocity' = momentum * velocity + g
    params'   = params - lr * velocity'

Weight decay enters before clipping and before the buffer, which keeps the
buffer bounded when clipping is active.  Parameters, gradient and velocity
may carry a leading row axis, (R, P): each row is then an independent
update with its own clipping norm.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NanGuardError


@dataclass(frozen=True)
class OptimizerConfig:
    lr: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    clip_norm: float | None = None

    def __post_init__(self):
        if not self.lr > 0:
            raise ValueError("lr must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ValueError("clip_norm must be positive when set")


def step(
    params: np.ndarray,
    velocity: np.ndarray,
    grad: np.ndarray,
    config: OptimizerConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """One update to ``(params, velocity)``; returns fresh arrays, inputs are never mutated.

    A non-finite gradient fails the norm check (with clipping) or the update check.
    """
    if params.shape != grad.shape or velocity.shape != params.shape:
        raise ValueError("params, gradient, and velocity must share one shape")

    # each product below is a fresh array, so updating it in place mutates no input
    g = config.weight_decay * params
    g += grad
    if config.clip_norm is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            norm = np.sqrt(np.vecdot(g, g))[..., None]  # per row
        if not np.all(np.isfinite(norm)):
            # a non-finite gradient; an overflowing norm would scale it to exactly zero
            raise NanGuardError("non-finite gradient norm")
        # rows within the clip norm are scaled by exactly 1.0
        g *= config.clip_norm / np.maximum(norm, config.clip_norm)
    velocity = config.momentum * velocity
    velocity += g
    with np.errstate(over="ignore", invalid="ignore"):  # NaN guard below decides
        new_params = config.lr * velocity
        np.subtract(params, new_params, out=new_params)
    if not np.all(np.isfinite(new_params)):
        raise NanGuardError("non-finite parameter update")
    return new_params, velocity


def causal_break(velocity: np.ndarray) -> np.ndarray:
    """Zero the momentum buffer; parameters are not part of the optimizer state."""
    return np.zeros_like(velocity)


def amplification_factor(mu: float, k: int) -> float:
    """Geometric accumulation (1 - mu^k) / (1 - mu); 1.0 when mu == 0."""
    if not 0.0 <= mu < 1.0:
        raise ValueError("mu must lie in [0, 1)")
    if k < 1:
        raise ValueError("k must be a positive integer")
    if mu == 0.0:
        return 1.0
    return (1.0 - mu**k) / (1.0 - mu)

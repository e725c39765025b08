"""Minimal differentiable classifiers with closed-form gradients.

Two normalization-free architectures are provided: a softmax linear model
and a one-hidden-layer MLP (tanh or relu).  Parameters live in a single
flat float64 vector so the optimizer can treat them opaquely; an (R, P)
stack of such vectors is R independent models, evaluated row by row with
the same arithmetic as a single vector.  All operations are pure functions
of their inputs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NanGuardError

KINDS = ("softmax_linear", "mlp1")
ACTIVATIONS = ("tanh", "relu")


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    input_dim: int
    num_classes: int
    hidden_dim: int | None = None
    activation: str = "tanh"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if self.num_classes < 2:
            raise ValueError("num_classes must be at least 2")
        if self.kind == "mlp1":
            if self.hidden_dim is None or self.hidden_dim < 1:
                raise ValueError("mlp1 requires a positive hidden_dim")
            if self.activation not in ACTIVATIONS:
                raise ValueError(f"unknown activation {self.activation!r}")


def parameter_count(spec: ModelSpec) -> int:
    d, c = spec.input_dim, spec.num_classes
    if spec.kind == "softmax_linear":
        return d * c + c
    h = spec.hidden_dim
    return d * h + h + h * c + c


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """Seeded uniform(-a, a) weight init with a = sqrt(6/(fan_in+fan_out)).

    Biases start at zero.  Identical (spec, seed) yield bit-identical vectors.
    """
    rng = np.random.default_rng(seed)
    d, c = spec.input_dim, spec.num_classes

    def layer(fan_in, fan_out):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-a, a, size=(fan_out, fan_in))

    if spec.kind == "softmax_linear":
        w = layer(d, c)
        return np.concatenate([w.ravel(), np.zeros(c)])
    h = spec.hidden_dim
    w1 = layer(d, h)
    w2 = layer(h, c)
    return np.concatenate([w1.ravel(), np.zeros(h), w2.ravel(), np.zeros(c)])


def _unpack(spec: ModelSpec, params: np.ndarray):
    """Weight and bias views; a stacked (R, P) vector gives a leading row axis on each."""
    d, c = spec.input_dim, spec.num_classes
    if params.ndim not in (1, 2) or params.shape[-1] != parameter_count(spec):
        raise ValueError(
            f"parameter vector has shape {params.shape}, expected {parameter_count(spec)} per row"
        )
    lead = params.shape[:-1]
    if spec.kind == "softmax_linear":
        w = params[..., : d * c].reshape(lead + (c, d))
        b = params[..., d * c :]
        return w, b
    h = spec.hidden_dim
    off = 0
    w1 = params[..., off : off + d * h].reshape(lead + (h, d))
    off += d * h
    b1 = params[..., off : off + h]
    off += h
    w2 = params[..., off : off + h * c].reshape(lead + (c, h))
    off += h * c
    b2 = params[..., off:]
    return w1, b1, w2, b2


def _check_inputs(spec: ModelSpec, inputs: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if x.shape[-1] != spec.input_dim:
        raise ValueError(f"inputs have {x.shape[-1]} features, spec expects {spec.input_dim}")
    return x


def _activation(spec: ModelSpec, pre: np.ndarray) -> np.ndarray:
    """The hidden activation, written over ``pre``."""
    if spec.activation == "tanh":
        return np.tanh(pre, out=pre)
    return np.maximum(pre, 0.0, out=pre)


def _T(a: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes (the matrix transpose of every row)."""
    return np.swapaxes(a, -1, -2)


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ w.T + b``, the bias added into the product's own buffer."""
    z = x @ _T(w)
    z += b[..., None, :]
    return z


def _hidden(spec: ModelSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    w1, b1, _, _ = _unpack(spec, params)
    return _activation(spec, _affine(x, w1, b1))


def _logits(spec: ModelSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    if spec.kind == "softmax_linear":
        w, b = _unpack(spec, params)
        return _affine(x, w, b)
    _, _, w2, b2 = _unpack(spec, params)
    return _affine(_hidden(spec, params, x), w2, b2)


def _row_max(z: np.ndarray) -> np.ndarray:
    """``z.max(axis=-1, keepdims=True)``, taken one class column at a time.

    A maximum is exact in any order, so the values are the same; over the
    few classes of the last axis this is faster than NumPy's reduction.
    """
    out = z[..., :1].copy()
    for j in range(1, z.shape[-1]):
        np.maximum(out, z[..., j : j + 1], out=out)
    return out


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax of the last axis, written over ``z``."""
    # Max subtraction keeps the exponentials bounded for the NaN guard.
    z -= _row_max(z)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def forward(spec: ModelSpec, params: np.ndarray, inputs) -> np.ndarray:
    """Softmax class probabilities, (N, C) for a batch of N feature vectors.

    Stacked (R, P) parameters give (R, N, C) probabilities, row r from
    parameter row r; ``inputs`` may be shared (N, d) or per row (R, N, d).
    """
    x = _check_inputs(spec, inputs)
    return _softmax(_logits(spec, params, x))


def check_batch(spec: ModelSpec, inputs, labels) -> tuple[np.ndarray, np.ndarray]:
    """A batch as float64 inputs and int64 labels, after checking its shapes and label range.

    ``inputs`` is (n, d) or (R, n, d) and ``labels`` (n,) or (R, n), one
    class index per input row; raises ValueError otherwise.
    """
    x = _check_inputs(spec, inputs)
    y = np.asarray(labels, dtype=np.int64)
    if y.ndim not in (1, 2) or y.shape[-1] != x.shape[-2]:
        raise ValueError("labels must be one integer per input row")
    if np.any(y < 0) or np.any(y >= spec.num_classes):
        raise ValueError("labels out of range")
    return x, y


def loss_and_grad(
    spec: ModelSpec, params: np.ndarray, inputs, labels
) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient in the flat layout.

    Stacked (R, P) parameters train R independent rows at once: ``inputs``
    is (n, d) or (R, n, d), ``labels`` is (n,) or (R, n), and the result is
    an (R,) loss array with an (R, P) gradient.  Each row is computed
    exactly as the unstacked call on that row would compute it.
    """
    return loss_and_grad_unchecked(spec, params, *check_batch(spec, inputs, labels))


def loss_and_grad_unchecked(
    spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[float | np.ndarray, np.ndarray]:
    """``loss_and_grad`` on a batch that ``check_batch`` has returned, without checking it again.

    A training loop checks its fixed batch once and calls this per step.
    """
    n = x.shape[-2]
    if spec.kind == "softmax_linear":
        w, b = _unpack(spec, params)
        z = _affine(x, w, b)
    else:
        w1, b1, w2, b2 = _unpack(spec, params)
        hidden = _activation(spec, _affine(x, w1, b1))
        z = _affine(hidden, w2, b2)
    # flat (row, example) view of z, to pick each example's label column
    target = (np.arange(z.size // z.shape[-1]), np.broadcast_to(y, z.shape[:-1]).ravel())

    with np.errstate(over="ignore", invalid="ignore"):  # NaN guard below decides
        zmax = _row_max(z)
        logsum = np.log(np.exp(z - zmax).sum(axis=-1, keepdims=True)) + zmax
        picked = z.reshape(-1, z.shape[-1])[target].reshape(z.shape[:-1])
        loss = (logsum[..., 0] - picked).mean(axis=-1)

        dz = np.exp(z - logsum)  # softmax probabilities
        dz.reshape(-1, z.shape[-1])[target] -= 1.0
        dz /= n

    lead = z.shape[:-2]
    if spec.kind == "softmax_linear":
        parts = [_T(dz) @ x, dz.sum(axis=-2)]
    else:
        gw2 = _T(dz) @ hidden
        gb2 = dz.sum(axis=-2)
        dh = dz @ w2
        if spec.activation == "tanh":
            dpre = hidden * hidden  # dh * (1 - hidden**2), in one buffer
            np.subtract(1.0, dpre, out=dpre)
            dpre *= dh
        else:
            dpre = dh * (hidden > 0.0)  # relu(pre) > 0 exactly where pre > 0
        parts = [_T(dpre) @ x, dpre.sum(axis=-2), gw2, gb2]
    grad = np.concatenate([part.reshape(lead + (-1,)) for part in parts], axis=-1)

    if not np.all(np.isfinite(loss)) or not np.all(np.isfinite(grad)):
        raise NanGuardError("non-finite loss or gradient")
    return (float(loss) if loss.ndim == 0 else loss), grad


def penultimate_features(spec: ModelSpec, params: np.ndarray, inputs) -> np.ndarray:
    """Input to the final linear layer (the inputs themselves for the linear model).

    Stacked (R, P) parameters give (R, N, ·) features, row r from parameter
    row r, as ``forward`` does; the linear model then gives one copy of the
    inputs per row.
    """
    x = _check_inputs(spec, inputs)
    if spec.kind == "softmax_linear":
        shape = np.broadcast_shapes(params.shape[:-1] + (1, 1), x.shape)
        return np.array(np.broadcast_to(x, shape))
    return _hidden(spec, params, x)
